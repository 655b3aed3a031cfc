// The byte-identity oracles shared by the incremental/serving test
// suites (buildgraph_test, overlay_test, stress_test), and the arc-chunk
// helpers the suites that hand-build or compare arc state share.
//
// The repo's correctness contract is byte-level: whatever the
// incremental build graph, the epoch-published snapshots or the
// profile-overlay compositor serve must equal what a full
// single-threaded build_separated_site would produce for the same
// authored state. These helpers build that oracle from a live engine
// and assert the identity, so every suite checks the same property
// through the same code path.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/arc_chunk.hpp"
#include "core/linkbase.hpp"
#include "nav/pipeline.hpp"
#include "nav/profile.hpp"
#include "serve/concurrent_server.hpp"
#include "site/virtual_site.hpp"
#include "xlink/traversal.hpp"
#include "xml/dom.hpp"

namespace navsep::testing {

/// From-scratch oracle: author + weave the engine's current navigation
/// design (ALL context families) with the batch builder. The engine's
/// incremental site() must be byte-identical to this.
[[nodiscard]] site::VirtualSite full_build_oracle(const nav::Engine& engine);

/// Per-profile oracle: a full single-threaded build weaving ONLY
/// `profile`'s families (weave_context_tours), as path → bytes. The
/// overlay-serving path must be byte-identical to this.
[[nodiscard]] std::map<std::string, std::string> profile_oracle(
    const nav::Engine& engine, const nav::Profile& profile);

/// Assert `actual` and `expected` hold the same paths with the same
/// bytes (gtest fatal on path-set mismatch, per-path EXPECT otherwise).
void expect_sites_identical(const site::VirtualSite& actual,
                            const site::VirtualSite& expected);

/// Assert the profile-scoped server agrees with profile_oracle() on
/// EVERY path: oracle paths byte-identical, engine-site paths outside
/// the oracle (other families' linkbases) 404.
void expect_profile_matches_oracle(const nav::Engine& engine,
                                   const serve::ConcurrentServer& server,
                                   const nav::Profile& profile);

/// The engine's served .html page paths (the overlay-cacheable set).
[[nodiscard]] std::vector<std::string> html_pages(const nav::Engine& engine);

/// `arcs` as one chunk per NavArc::source, in first-appearance order:
/// how a test hands a flat arc list to what takes chunks (snapshot
/// overlay inputs, route expansion, landmark scoring, the aspect).
[[nodiscard]] core::ArcChunks chunks_of(const std::vector<core::NavArc>& arcs);

/// Each page's slice hash over one linkbase's `arcs`, folded here rather
/// than by core::make_arc_chunk: page core::default_href_for(from),
/// hash_combine(slice, core::arc_hash(arc)) from core::kEmptySliceHash.
[[nodiscard]] core::PageSliceHashes fold_slice_hashes(
    const std::vector<core::NavArc>& arcs);

/// Each page id's woven hash over one linkbase's `arcs`, folded here
/// rather than by core::make_arc_chunk: the same fold as
/// fold_slice_hashes over only the context-free arcs, keyed by `from`
/// (the keys view `arcs`).
[[nodiscard]] std::map<std::string_view, std::uint64_t, std::less<>>
fold_woven_hashes(const std::vector<core::NavArc>& arcs);

/// Assert `got` holds `want`'s chunks in order: same source, the same
/// arcs in the same order (every field, ordinal included), and the same
/// slice and woven hashes.
void expect_same_chunks(const core::ArcChunks& want,
                        const core::ArcChunks& got);

/// Assert `got` serves `want`'s traversal: the same resource URIs, and
/// for each the same outgoing arcs in order, field by field (each
/// endpoint's is_local, uri, label, role and title; arcrole, title, show
/// and actuate).
void expect_same_traversal(const xlink::TraversalGraph& want,
                           const xlink::TraversalGraph& got);

// The element-by-element DOM authoring every linkbase had before the
// producers of core/linkbase.hpp, kept as their reference: the
// producers' text must equal these documents pretty-printed, and their
// arcs what the XLink processor reads back from that text.

/// The access structure's linkbase document, built element by element.
[[nodiscard]] std::unique_ptr<xml::Document> reference_linkbase(
    const hypermedia::AccessStructure& structure,
    const core::LinkbaseOptions& options = {});

/// A context family's linkbase document, built element by element.
[[nodiscard]] std::unique_ptr<xml::Document> reference_context_linkbase(
    const hypermedia::ContextFamily& family,
    const std::function<std::string(std::string_view node_id)>& title_of,
    const core::LinkbaseOptions& options = {});

}  // namespace navsep::testing
