#include "expr/lexer.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <string>

#include "expr/parser.hpp"
#include "support/error.hpp"

namespace dfg::expr {

const char* token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::identifier:
      return "identifier";
    case TokenKind::number:
      return "number";
    case TokenKind::plus:
      return "'+'";
    case TokenKind::minus:
      return "'-'";
    case TokenKind::star:
      return "'*'";
    case TokenKind::slash:
      return "'/'";
    case TokenKind::lparen:
      return "'('";
    case TokenKind::rparen:
      return "')'";
    case TokenKind::lbracket:
      return "'['";
    case TokenKind::rbracket:
      return "']'";
    case TokenKind::comma:
      return "','";
    case TokenKind::assign:
      return "'='";
    case TokenKind::less:
      return "'<'";
    case TokenKind::greater:
      return "'>'";
    case TokenKind::less_equal:
      return "'<='";
    case TokenKind::greater_equal:
      return "'>='";
    case TokenKind::equal_equal:
      return "'=='";
    case TokenKind::not_equal:
      return "'!='";
    case TokenKind::kw_if:
      return "'if'";
    case TokenKind::kw_then:
      return "'then'";
    case TokenKind::kw_else:
      return "'else'";
    case TokenKind::end_of_input:
      return "end of input";
  }
  return "?";
}

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  int line = 1;
  int column = 1;
  std::size_t i = 0;
  int statements = 0;

  const auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n; ++k) {
      if (i < source.size() && source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  const auto push = [&](TokenKind kind, std::string_view text, int tok_line,
                        int tok_column, double value = 0.0) {
    tokens.push_back(Token{kind, text, value, tok_line, tok_column});
  };

  while (i < source.size()) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < source.size() && source[i] != '\n') advance();
      continue;
    }

    const int tok_line = line;
    const int tok_column = column;

    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < source.size() && is_ident_char(source[i])) advance();
      const std::string_view text = source.substr(start, i - start);
      TokenKind kind = TokenKind::identifier;
      if (text == "if") {
        kind = TokenKind::kw_if;
      } else if (text == "then") {
        kind = TokenKind::kw_then;
      } else if (text == "else") {
        kind = TokenKind::kw_else;
      }
      push(kind, text, tok_line, tok_column);
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < source.size() &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::size_t start = i;
      while (i < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[i])) ||
              source[i] == '.')) {
        advance();
      }
      // Exponent part.
      if (i < source.size() && (source[i] == 'e' || source[i] == 'E')) {
        std::size_t mark = i;
        advance();
        if (i < source.size() && (source[i] == '+' || source[i] == '-')) {
          advance();
        }
        if (i < source.size() &&
            std::isdigit(static_cast<unsigned char>(source[i]))) {
          while (i < source.size() &&
                 std::isdigit(static_cast<unsigned char>(source[i]))) {
            advance();
          }
        } else {
          // Not actually an exponent ("2e" followed by an identifier); back
          // out is impossible with our advance bookkeeping, so reject.
          (void)mark;
          throw ParseError("malformed exponent in number literal", tok_line,
                           tok_column);
        }
      }
      const std::string text(source.substr(start, i - start));
      if (text.find("..") != std::string::npos ||
          std::count(text.begin(), text.end(), '.') > 1) {
        throw ParseError("malformed number literal '" + text + "'", tok_line,
                         tok_column);
      }
      char* parse_end = nullptr;
      const double value = std::strtod(text.c_str(), &parse_end);
      if (parse_end != text.c_str() + text.size()) {
        throw ParseError("malformed number literal '" + text + "'", tok_line,
                         tok_column);
      }
      push(TokenKind::number, source.substr(start, i - start), tok_line,
           tok_column, value);
      continue;
    }

    // Two-character operators first.
    const auto two = source.substr(i, 2);
    if (two == "<=") {
      push(TokenKind::less_equal, "<=", tok_line, tok_column);
      advance(2);
      continue;
    }
    if (two == ">=") {
      push(TokenKind::greater_equal, ">=", tok_line, tok_column);
      advance(2);
      continue;
    }
    if (two == "==") {
      push(TokenKind::equal_equal, "==", tok_line, tok_column);
      advance(2);
      continue;
    }
    if (two == "!=") {
      push(TokenKind::not_equal, "!=", tok_line, tok_column);
      advance(2);
      continue;
    }

    TokenKind kind;
    switch (c) {
      case '+':
        kind = TokenKind::plus;
        break;
      case '-':
        kind = TokenKind::minus;
        break;
      case '*':
        kind = TokenKind::star;
        break;
      case '/':
        kind = TokenKind::slash;
        break;
      case '(':
        kind = TokenKind::lparen;
        break;
      case ')':
        kind = TokenKind::rparen;
        break;
      case '[':
        kind = TokenKind::lbracket;
        break;
      case ']':
        kind = TokenKind::rbracket;
        break;
      case ',':
        kind = TokenKind::comma;
        break;
      case '=':
        kind = TokenKind::assign;
        if (++statements > kMaxScriptStatements) {
          throw ParseError("script has more than " +
                               std::to_string(kMaxScriptStatements) +
                               " statements, the limit per script",
                           tok_line, tok_column);
        }
        break;
      case '<':
        kind = TokenKind::less;
        break;
      case '>':
        kind = TokenKind::greater;
        break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'",
                         tok_line, tok_column);
    }
    push(kind, source.substr(i, 1), tok_line, tok_column);
    advance();
  }

  tokens.push_back(Token{TokenKind::end_of_input, "", 0.0, line, column});
  return tokens;
}

}  // namespace dfg::expr
