#include "nav/route.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace navsep::nav {

namespace {

// --- lexer -------------------------------------------------------------------

struct Token {
  enum class Kind : std::uint8_t {
    Role,    // IDENT
    Family,  // '@' IDENT
    Slash,
    Pipe,
    Star,
    LParen,
    RParen,
    End,
  };
  Kind kind = Kind::End;
  std::string text;        // atom name for Role/Family, operator text else
  std::size_t offset = 0;  // byte offset of the token's first character
};

[[nodiscard]] bool ident_start(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_';
}

[[nodiscard]] bool ident_char(char c) {
  return ident_start(c) || (c >= '0' && c <= '9') || c == '-';
}

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw ParseError("route expression: " + what,
                   Position{1, offset + 1, offset});
}

[[nodiscard]] std::vector<Token> lex(std::string_view text) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      ++i;
      continue;
    }
    const std::size_t at = i;
    if (c == '/') {
      out.push_back({Token::Kind::Slash, "/", at});
      ++i;
    } else if (c == '|') {
      out.push_back({Token::Kind::Pipe, "|", at});
      ++i;
    } else if (c == '*') {
      out.push_back({Token::Kind::Star, "*", at});
      ++i;
    } else if (c == '(') {
      out.push_back({Token::Kind::LParen, "(", at});
      ++i;
    } else if (c == ')') {
      out.push_back({Token::Kind::RParen, ")", at});
      ++i;
    } else if (c == '@') {
      ++i;
      if (i >= text.size() || !ident_start(text[i])) {
        fail("expected a family name after '@'", at);
      }
      std::size_t begin = i;
      while (i < text.size() && ident_char(text[i])) ++i;
      out.push_back(
          {Token::Kind::Family, std::string(text.substr(begin, i - begin)),
           at});
    } else if (ident_start(c)) {
      std::size_t begin = i;
      while (i < text.size() && ident_char(text[i])) ++i;
      out.push_back(
          {Token::Kind::Role, std::string(text.substr(begin, i - begin)), at});
    } else {
      fail("unexpected character '" + std::string(1, c) + "'", at);
    }
  }
  out.push_back({Token::Kind::End, "end of input", text.size()});
  return out;
}

// --- parser ------------------------------------------------------------------
//
// alt := seq ('|' seq)* ; seq := star ('/' star)* ; star := atom ['*'] ;
// atom := IDENT | '@' IDENT | '(' alt ')'

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  [[nodiscard]] RouteExpr parse() {
    RouteExpr e = alt();
    const Token& t = peek();
    if (t.kind != Token::Kind::End) {
      fail("unexpected token '" + t.text + "'", t.offset);
    }
    return e;
  }

 private:
  [[nodiscard]] const Token& peek() const { return tokens_[pos_]; }
  const Token& take() { return tokens_[pos_++]; }

  [[nodiscard]] RouteExpr alt() {
    RouteExpr first = seq();
    if (peek().kind != Token::Kind::Pipe) return first;
    RouteExpr out;
    out.kind = RouteExpr::Kind::Alt;
    out.children.push_back(std::move(first));
    while (peek().kind == Token::Kind::Pipe) {
      take();
      out.children.push_back(seq());
    }
    return out;
  }

  [[nodiscard]] RouteExpr seq() {
    RouteExpr first = star();
    if (peek().kind != Token::Kind::Slash) return first;
    RouteExpr out;
    out.kind = RouteExpr::Kind::Seq;
    out.children.push_back(std::move(first));
    while (peek().kind == Token::Kind::Slash) {
      take();
      out.children.push_back(star());
    }
    return out;
  }

  [[nodiscard]] RouteExpr star() {
    RouteExpr inner = atom();
    while (peek().kind == Token::Kind::Star) {
      const Token& t = take();
      // `e**` is redundant, not meaningful — reject it so every accepted
      // program has exactly one canonical spelling.
      if (inner.kind == RouteExpr::Kind::Star) {
        fail("unexpected token '*' (already starred)", t.offset);
      }
      RouteExpr out;
      out.kind = RouteExpr::Kind::Star;
      out.children.push_back(std::move(inner));
      inner = std::move(out);
    }
    return inner;
  }

  [[nodiscard]] RouteExpr atom() {
    const Token& t = take();
    switch (t.kind) {
      case Token::Kind::Role: {
        RouteExpr e;
        e.kind = RouteExpr::Kind::Role;
        e.name = t.text;
        return e;
      }
      case Token::Kind::Family: {
        RouteExpr e;
        e.kind = RouteExpr::Kind::Family;
        e.name = t.text;
        return e;
      }
      case Token::Kind::LParen: {
        RouteExpr e = alt();
        const Token& close = take();
        if (close.kind != Token::Kind::RParen) {
          fail("expected ')' but found '" + close.text + "'", close.offset);
        }
        return e;
      }
      default:
        fail("unexpected token '" + t.text + "'", t.offset);
    }
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

// --- printer -----------------------------------------------------------------

[[nodiscard]] int precedence(RouteExpr::Kind kind) {
  switch (kind) {
    case RouteExpr::Kind::Alt:
      return 0;
    case RouteExpr::Kind::Seq:
      return 1;
    case RouteExpr::Kind::Star:
      return 2;
    case RouteExpr::Kind::Role:
    case RouteExpr::Kind::Family:
      return 3;
  }
  return 3;
}

void print_into(const RouteExpr& expr, int min_precedence, std::string& out) {
  const bool parens = precedence(expr.kind) < min_precedence;
  if (parens) out += '(';
  switch (expr.kind) {
    case RouteExpr::Kind::Role:
      out += expr.name;
      break;
    case RouteExpr::Kind::Family:
      out += '@';
      out += expr.name;
      break;
    case RouteExpr::Kind::Star:
      // The child needs parens unless it is itself an atom.
      print_into(expr.children.front(), 3, out);
      out += '*';
      break;
    case RouteExpr::Kind::Seq:
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        if (i != 0) out += " / ";
        print_into(expr.children[i], 2, out);
      }
      break;
    case RouteExpr::Kind::Alt:
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        if (i != 0) out += " | ";
        print_into(expr.children[i], 1, out);
      }
      break;
  }
  if (parens) out += ')';
}

// --- NFA ---------------------------------------------------------------------

// Thompson construction: one transition per atom occurrence, epsilon
// edges for Seq/Alt/Star plumbing. States are dense indices.
struct Nfa {
  struct Trans {
    std::size_t from = 0;
    bool family = false;    // false: role atom, true: family atom
    const std::string* name = nullptr;
    std::size_t to = 0;
  };
  std::vector<Trans> transitions;
  std::vector<std::pair<std::size_t, std::size_t>> epsilons;
  std::size_t state_count = 0;
  std::size_t start = 0;
  std::size_t accept = 0;

  std::size_t fresh() { return state_count++; }
};

// Builds the fragment for `expr` between two freshly allocated states and
// returns {entry, exit}.
std::pair<std::size_t, std::size_t> build_nfa(const RouteExpr& expr,
                                              Nfa& nfa) {
  switch (expr.kind) {
    case RouteExpr::Kind::Role:
    case RouteExpr::Kind::Family: {
      std::size_t entry = nfa.fresh();
      std::size_t exit = nfa.fresh();
      nfa.transitions.push_back({entry,
                                 expr.kind == RouteExpr::Kind::Family,
                                 &expr.name, exit});
      return {entry, exit};
    }
    case RouteExpr::Kind::Seq: {
      std::pair<std::size_t, std::size_t> whole{0, 0};
      for (std::size_t i = 0; i < expr.children.size(); ++i) {
        auto frag = build_nfa(expr.children[i], nfa);
        if (i == 0) {
          whole = frag;
        } else {
          nfa.epsilons.emplace_back(whole.second, frag.first);
          whole.second = frag.second;
        }
      }
      return whole;
    }
    case RouteExpr::Kind::Alt: {
      std::size_t entry = nfa.fresh();
      std::size_t exit = nfa.fresh();
      for (const RouteExpr& child : expr.children) {
        auto frag = build_nfa(child, nfa);
        nfa.epsilons.emplace_back(entry, frag.first);
        nfa.epsilons.emplace_back(frag.second, exit);
      }
      return {entry, exit};
    }
    case RouteExpr::Kind::Star: {
      std::size_t entry = nfa.fresh();
      std::size_t exit = nfa.fresh();
      auto frag = build_nfa(expr.children.front(), nfa);
      nfa.epsilons.emplace_back(entry, exit);        // zero iterations
      nfa.epsilons.emplace_back(entry, frag.first);  // enter the loop
      nfa.epsilons.emplace_back(frag.second, frag.first);  // repeat
      nfa.epsilons.emplace_back(frag.second, exit);        // leave
      return {entry, exit};
    }
  }
  return {0, 0};
}

/// Family part of a qualified context tag ("family:name" → "family";
/// untagged structure arcs yield "" and never match a family atom).
[[nodiscard]] std::string_view context_family_of(std::string_view context) {
  const std::size_t colon = context.find(':');
  return colon == std::string_view::npos ? context : context.substr(0, colon);
}

}  // namespace

RouteExpr parse_route(std::string_view expression) {
  return Parser(lex(expression)).parse();
}

std::string print_route(const RouteExpr& expr) {
  std::string out;
  print_into(expr, 0, out);
  return out;
}

std::vector<std::string> expand_route(const RouteExpr& expr,
                                      const core::ArcChunks& chunks) {
  // Universe: every id the arcs name, sorted (string_view keys stay
  // valid because `nodes` is never resized after this block).
  std::vector<std::string> nodes;
  std::unordered_map<std::string_view, std::size_t> index;
  for (const std::shared_ptr<const core::ArcChunk>& chunk : chunks) {
    for (const core::NavArc& arc : chunk->arcs) {
      nodes.push_back(arc.from);
      nodes.push_back(arc.to);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  index.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) index.emplace(nodes[i], i);

  struct Edge {
    std::size_t to = 0;
    const core::NavArc* arc = nullptr;
  };
  std::vector<std::vector<Edge>> adjacency(nodes.size());
  for (const std::shared_ptr<const core::ArcChunk>& chunk : chunks) {
    for (const core::NavArc& arc : chunk->arcs) {
      adjacency[index.at(arc.from)].push_back({index.at(arc.to), &arc});
    }
  }

  Nfa nfa;
  auto [start, accept] = build_nfa(expr, nfa);
  nfa.start = start;
  nfa.accept = accept;

  std::vector<std::vector<std::size_t>> eps_out(nfa.state_count);
  for (auto [from, to] : nfa.epsilons) eps_out[from].push_back(to);
  std::vector<std::vector<const Nfa::Trans*>> trans_out(nfa.state_count);
  for (const Nfa::Trans& t : nfa.transitions) {
    trans_out[t.from].push_back(&t);
  }

  // Product BFS over (node, nfa-state): every node is a legal journey
  // start, a pair reaching the accept state marks its node reachable.
  std::vector<bool> visited(nodes.size() * nfa.state_count, false);
  std::vector<bool> reached(nodes.size(), false);
  std::queue<std::pair<std::size_t, std::size_t>> queue;
  auto push = [&](std::size_t node, std::size_t state) {
    const std::size_t key = node * nfa.state_count + state;
    if (visited[key]) return;
    visited[key] = true;
    queue.emplace(node, state);
  };
  for (std::size_t n = 0; n < nodes.size(); ++n) push(n, nfa.start);
  while (!queue.empty()) {
    auto [node, state] = queue.front();
    queue.pop();
    if (state == nfa.accept) reached[node] = true;
    for (std::size_t next : eps_out[state]) push(node, next);
    for (const Nfa::Trans* t : trans_out[state]) {
      for (const Edge& edge : adjacency[node]) {
        const bool matches =
            t->family ? context_family_of(edge.arc->context) == *t->name
                      : edge.arc->role == *t->name;
        if (matches) push(edge.to, t->to);
      }
    }
  }

  std::vector<std::string> out;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    if (reached[n]) out.push_back(nodes[n]);
  }
  return out;  // `nodes` is sorted, so `out` is too.
}

hypermedia::ContextFamily route_context_family(
    std::string_view name, const RouteExpr& expr,
    const core::ArcChunks& chunks) {
  std::vector<std::string> ids = expand_route(expr, chunks);
  std::vector<hypermedia::NavigationalContext> contexts;
  contexts.emplace_back(std::string(name), "route", std::move(ids));
  return hypermedia::ContextFamily(std::string(name), std::move(contexts));
}

std::uint64_t route_token(const RouteProgram& program) {
  // One FNV-1a stream over the fields, each followed by a 0xff separator.
  const auto field = [](std::uint64_t h, std::string_view text) {
    return hash_bytes("\xff", hash_bytes(text, h));
  };
  std::uint64_t h = field(kFnvOffsetBasis, program.name);
  h = field(h, print_route(parse_route(program.expression)));
  return field(h, program.compile == RouteCompile::Aot ? "aot" : "lazy");
}

}  // namespace navsep::nav
