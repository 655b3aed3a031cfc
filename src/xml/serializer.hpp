// Serialization of the navsep::xml DOM back to markup.
//
// Two modes:
//  * compact  — no added whitespace; parse(serialize(doc)) reproduces the
//               tree exactly (round-trip property tested in xml_test).
//  * pretty   — children indented, data-oriented layout (text-only elements
//               stay on one line).
#pragma once

#include <string>

#include "xml/dom.hpp"

namespace navsep::xml {

struct WriteOptions {
  bool pretty = false;
  /// Indentation unit for pretty mode.
  std::string indent = "  ";
  /// Emit the `<?xml version="1.0" encoding="UTF-8"?>` declaration.
  bool declaration = true;
};

/// Serialize a whole document.
[[nodiscard]] std::string write(const Document& doc,
                                const WriteOptions& options = {});

/// Serialize a single element subtree (no declaration).
[[nodiscard]] std::string write(const Element& element,
                                const WriteOptions& options = {});

/// Escape character data (&, <, >).
[[nodiscard]] std::string escape_text(std::string_view s);

/// Escape an attribute value (&, <, ", and control whitespace).
[[nodiscard]] std::string escape_attribute(std::string_view s);

/// Append escape_attribute(s) to `out`.
void append_escaped_attribute(std::string& out, std::string_view s);

}  // namespace navsep::xml
