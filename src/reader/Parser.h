//===- Parser.h - Prolog reader ---------------------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-precedence parser producing clause terms. This is the front of
/// the paper's preprocessing phase: programs are *read*, transformed, and
/// loaded as dynamic code.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_READER_PARSER_H
#define LPA_READER_PARSER_H

#include "reader/Lexer.h"
#include "reader/OpTable.h"
#include "support/Error.h"
#include "term/Symbol.h"
#include "term/TermStore.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace lpa {

/// Parses a source buffer clause by clause.
///
/// Variables scope over a single clause; the name map is exposed after each
/// nextClause() so callers (the toplevel example, tests) can report
/// bindings by their source names.
class Parser {
public:
  /// Deepest subterm nesting the reader accepts (arguments, list elements,
  /// operands and parentheses all count). Deeper input gets a Diagnostic
  /// instead of overflowing the C++ stack here or in the recursive term
  /// walks downstream, sanitizer builds' larger frames included.
  static constexpr unsigned MaxNesting = 1000;

  Parser(SymbolTable &Symbols, TermStore &Store, std::string_view Text);

  /// Parses the next clause (a term followed by '.').
  ///
  /// \returns the clause term; InvalidTerm at end of input; a Diagnostic on
  /// malformed input.
  ErrorOr<TermRef> nextClause();

  /// Named variables of the most recently parsed clause, in order of first
  /// occurrence.
  const std::vector<std::pair<std::string, TermRef>> &clauseVars() const {
    return ClauseVars;
  }

  /// Parses a whole program: every clause until end of input.
  static ErrorOr<std::vector<TermRef>>
  parseProgram(SymbolTable &Symbols, TermStore &Store, std::string_view Text);

  /// Parses exactly one term (a trailing '.' is optional). Convenience for
  /// queries in tests and examples.
  static ErrorOr<TermRef> parseTerm(SymbolTable &Symbols, TermStore &Store,
                                    std::string_view Text);

private:
  /// A parsed subterm together with the priority it was produced at (0 for
  /// plain terms, the operator priority for operator applications); needed
  /// to enforce x (strictly lower) vs y (lower or equal) argument slots.
  struct Parsed {
    TermRef Term;
    int Priority;
  };

  void bump(); ///< Advances Cur.
  Diagnostic errorHere(const std::string &Message) const;
  bool tokenCanStartTerm(const Token &T) const;

  ErrorOr<TermRef> parseExpr(int MaxPrec);
  ErrorOr<Parsed> parseLeft(int MaxPrec);
  ErrorOr<Parsed> parsePrimary();
  ErrorOr<TermRef> parseArgList(SymbolId Functor);
  ErrorOr<TermRef> parseList();
  TermRef internVar(const std::string &Name);

  SymbolTable &Symbols;
  TermStore &Store;
  OpTable Ops;
  Lexer Lex;
  Token Cur;
  unsigned Depth = 0; ///< parseExpr nesting (see MaxNesting).
  std::unordered_map<std::string, TermRef> VarMap;
  std::vector<std::pair<std::string, TermRef>> ClauseVars;
};

} // namespace lpa

#endif // LPA_READER_PARSER_H
