#include "xml/serializer.hpp"

namespace navsep::xml {

std::string escape_text(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string escape_attribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped_attribute(out, s);
  return out;
}

void append_escaped_attribute(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '"': out += "&quot;"; break;
      case '\t': out += "&#9;"; break;
      case '\n': out += "&#10;"; break;
      case '\r': out += "&#13;"; break;
      default: out.push_back(c);
    }
  }
}

namespace {

class Writer {
 public:
  explicit Writer(const WriteOptions& options) : options_(options) {}

  std::string take() && { return std::move(out_); }

  void document(const Document& doc) {
    if (options_.declaration) {
      out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
      if (options_.pretty) out_ += '\n';
    }
    for (const auto& child : doc.children()) {
      node(*child, 0);
      if (options_.pretty) newline_if_needed();
    }
  }

  void node(const Node& n, int depth) {
    switch (n.type()) {
      case NodeType::Element:
        element(static_cast<const Element&>(n), depth);
        break;
      case NodeType::Text:
        out_ += escape_text(static_cast<const Text&>(n).data());
        break;
      case NodeType::Comment:
        out_ += "<!--";
        out_ += static_cast<const Comment&>(n).data();
        out_ += "-->";
        break;
      case NodeType::ProcessingInstruction: {
        const auto& pi = static_cast<const ProcessingInstruction&>(n);
        out_ += "<?";
        out_ += pi.target();
        if (!pi.data().empty()) {
          out_ += ' ';
          out_ += pi.data();
        }
        out_ += "?>";
        break;
      }
      case NodeType::Document:
        document(static_cast<const Document&>(n));
        break;
      case NodeType::Attribute:
        break;  // attribute views never appear as tree children
    }
  }

 private:
  void element(const Element& e, int depth) {
    out_ += '<';
    out_ += e.name().qualified();
    for (const auto& a : e.attributes()) {
      out_ += ' ';
      out_ += a.name.qualified();
      out_ += "=\"";
      append_escaped_attribute(out_, a.value);
      out_ += '"';
    }
    if (e.children().empty()) {
      out_ += "/>";
      return;
    }
    out_ += '>';

    bool text_only = true;
    for (const auto& c : e.children()) {
      if (!c->is_text()) {
        text_only = false;
        break;
      }
    }

    if (!options_.pretty || text_only) {
      for (const auto& c : e.children()) node(*c, depth + 1);
    } else {
      for (const auto& c : e.children()) {
        newline_indent(depth + 1);
        node(*c, depth + 1);
      }
      newline_indent(depth);
    }
    out_ += "</";
    out_ += e.name().qualified();
    out_ += '>';
  }

  void newline_indent(int depth) {
    out_ += '\n';
    for (int i = 0; i < depth; ++i) out_ += options_.indent;
  }

  void newline_if_needed() {
    if (!out_.empty() && out_.back() != '\n') out_ += '\n';
  }

  const WriteOptions& options_;
  std::string out_;
};

}  // namespace

std::string write(const Document& doc, const WriteOptions& options) {
  Writer w(options);
  w.document(doc);
  return std::move(w).take();
}

std::string write(const Element& element, const WriteOptions& options) {
  Writer w(options);
  w.node(element, 0);
  return std::move(w).take();
}

}  // namespace navsep::xml
