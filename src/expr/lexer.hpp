// Expression front-end: lexer.
//
// Hand-written scanner producing the token stream for the parser. Python's
// '#' comments are accepted so expression scripts can be annotated like the
// paper's Figure 3 listings.
#pragma once

#include <string_view>
#include <vector>

#include "expr/token.hpp"

namespace dfg::expr {

/// Tokenises the whole input. The returned stream always ends with an
/// end_of_input token. Throws ParseError on unknown characters, malformed
/// number literals, or more than kMaxScriptStatements '=' tokens. Token
/// texts point into `source`, which must outlive the tokens.
std::vector<Token> tokenize(std::string_view source);

}  // namespace dfg::expr
