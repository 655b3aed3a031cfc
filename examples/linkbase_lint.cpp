// linkbase_lint: a developer tool for the separated workflow.
//
// When navigation lives in links.xml, that file becomes the thing to get
// right. This linter loads a linkbase (and, optionally, the data documents
// next to it), then reports:
//   * XLink structural issues (dangling labels, locators without hrefs),
//   * arcs whose endpoints do not resolve against the supplied documents,
//   * a summary of the traversal graph (resources, arcs per role).
//
// Usage:
//   build/examples/linkbase_lint <links.xml> [data.xml ...]
//   build/examples/linkbase_lint            # lints a built-in demo museum
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/linkbase.hpp"
#include "nav/pipeline.hpp"
#include "xlink/processor.hpp"
#include "xlink/traversal.hpp"
#include "xml/parser.hpp"
#include "xml/serializer.hpp"

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string file_uri(const std::filesystem::path& path) {
  return "file://" + std::filesystem::absolute(path).generic_string();
}

int lint(const navsep::xml::Document& linkbase,
         const navsep::xlink::DocumentRegistry& registry,
         std::size_t known_documents) {
  using namespace navsep;

  int errors = 0;

  std::vector<xlink::Issue> extraction_issues;
  xlink::LinkCollection links = xlink::extract(linkbase, &extraction_issues);
  std::vector<xlink::Issue> issues = xlink::validate(links);
  issues.insert(issues.end(), extraction_issues.begin(),
                extraction_issues.end());

  std::printf("linking elements : %zu extended, %zu simple\n",
              links.extended.size(), links.simple.size());
  for (const auto& issue : issues) {
    bool is_error = issue.severity == xlink::Issue::Severity::Error;
    if (is_error) ++errors;
    std::printf("  [%s] %s\n", is_error ? "ERROR" : "warn",
                issue.message.c_str());
  }

  xlink::TraversalGraph graph = xlink::TraversalGraph::from_linkbase(linkbase);
  std::map<std::string, std::size_t> by_role;
  for (const auto& arc : graph.arcs()) ++by_role[arc.arcrole];
  std::printf("traversal graph  : %zu arcs over %zu resources\n",
              graph.arcs().size(), graph.resource_uris().size());
  for (const auto& [role, count] : by_role) {
    std::printf("  %-24s %zu\n", role.empty() ? "(no arcrole)" : role.c_str(),
                count);
  }

  if (known_documents > 0) {
    std::size_t resolved = 0, unresolved = 0;
    for (const std::string& uri : graph.resource_uris()) {
      if (registry.find(uri) == nullptr) continue;  // different document
      if (registry.resolve(uri) != nullptr) {
        ++resolved;
      } else {
        ++unresolved;
        ++errors;
        std::printf("  [ERROR] endpoint does not resolve: %s\n", uri.c_str());
      }
    }
    std::printf("endpoint check   : %zu resolved, %zu broken (across %zu "
                "supplied documents)\n",
                resolved, unresolved, known_documents);
  }

  std::printf("%s\n", errors == 0 ? "OK" : "FAILED");
  return errors == 0 ? 0 : 1;
}

int lint_demo() {
  using namespace navsep;
  std::printf("(no arguments: linting a generated demo linkbase)\n\n");
  // The façade carries the demo from conceptual model to access
  // structure; the linter then checks a data-document-targeting linkbase
  // authored over it.
  auto engine = nav::SitePipeline()
                    .paper_museum()
                    .schema()
                    .access(hypermedia::AccessStructureKind::IndexedGuidedTour,
                            "picasso")
                    .weave()
                    .serve();

  core::LinkbaseOptions options;
  options.base_uri = engine->server().base() + "links.xml";
  options.data_href = [](std::string_view id) {
    return "data/" + std::string(id) + ".xml";
  };
  auto linkbase = core::build_linkbase(engine->structure(), options);

  // Register the painting documents so endpoint checking has targets.
  std::vector<std::unique_ptr<xml::Document>> docs;
  xlink::DocumentRegistry registry;
  for (const std::string& id : engine->world().painting_ids()) {
    xml::ParseOptions popts;
    popts.base_uri = engine->server().base() + "data/" + id + ".xml";
    docs.push_back(xml::parse(
        xml::write(*engine->world().painting_document(id), {}), popts));
    registry.add(*docs.back());
  }
  return lint(*linkbase, registry, docs.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace navsep;
  if (argc < 2) return lint_demo();

  std::filesystem::path linkbase_path = argv[1];
  xml::ParseOptions opts;
  opts.base_uri = file_uri(linkbase_path);
  std::unique_ptr<xml::Document> linkbase;
  try {
    linkbase = xml::parse(slurp(linkbase_path), opts);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[1], e.what());
    return 2;
  }

  std::vector<std::unique_ptr<xml::Document>> docs;
  xlink::DocumentRegistry registry;
  for (int i = 2; i < argc; ++i) {
    xml::ParseOptions dopts;
    dopts.base_uri = file_uri(argv[i]);
    try {
      docs.push_back(xml::parse(slurp(argv[i]), dopts));
      registry.add(*docs.back());
    } catch (const Error& e) {
      std::fprintf(stderr, "%s: %s\n", argv[i], e.what());
      return 2;
    }
  }
  std::printf("linting %s\n\n", argv[1]);
  return lint(*linkbase, registry, docs.size());
}
