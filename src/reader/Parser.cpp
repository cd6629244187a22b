//===- Parser.cpp - Prolog reader ------------------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "reader/Parser.h"

using namespace lpa;

Parser::Parser(SymbolTable &Symbols, TermStore &Store, std::string_view Text)
    : Symbols(Symbols), Store(Store), Lex(Text) {
  Cur = Lex.next();
}

void Parser::bump() { Cur = Lex.next(); }

Diagnostic Parser::errorHere(const std::string &Message) const {
  return Diagnostic(Message, Cur.Pos);
}

bool Parser::tokenCanStartTerm(const Token &T) const {
  switch (T.Kind) {
  case TokenKind::Atom:
  case TokenKind::Var:
  case TokenKind::Int:
  case TokenKind::Str:
  case TokenKind::LParen:
  case TokenKind::LBracket:
    return true;
  default:
    return false;
  }
}

TermRef Parser::internVar(const std::string &Name) {
  if (Name == "_") {
    TermRef V = Store.mkVar();
    return V; // Every '_' is a fresh variable.
  }
  auto It = VarMap.find(Name);
  if (It != VarMap.end())
    return It->second;
  TermRef V = Store.mkVar();
  VarMap.emplace(Name, V);
  ClauseVars.emplace_back(Name, V);
  return V;
}

ErrorOr<TermRef> Parser::nextClause() {
  VarMap.clear();
  ClauseVars.clear();
  if (Cur.Kind == TokenKind::EndOfFile)
    return InvalidTerm;
  auto Term = parseExpr(1200);
  if (!Term)
    return Term.getError();
  if (Cur.Kind != TokenKind::End)
    return errorHere("expected '.' at end of clause");
  bump();
  return *Term;
}

ErrorOr<TermRef> Parser::parseExpr(int MaxPrec) {
  if (Depth == MaxNesting)
    return errorHere("term nested deeper than " + std::to_string(MaxNesting) +
                     " levels");
  ++Depth;
  auto Left = parseLeft(MaxPrec);
  --Depth;
  if (!Left)
    return Left.getError();
  return Left->Term;
}

ErrorOr<Parser::Parsed> Parser::parseLeft(int MaxPrec) {
  auto LeftOr = parsePrimary();
  if (!LeftOr)
    return LeftOr.getError();
  Parsed Left = *LeftOr;

  while (true) {
    // Identify a candidate infix operator at Cur.
    std::string OpName;
    if (Cur.Kind == TokenKind::Atom)
      OpName = Cur.Text;
    else if (Cur.Kind == TokenKind::Comma)
      OpName = ",";
    else
      break;

    auto Def = Ops.infix(OpName);
    if (!Def || Def->Priority > MaxPrec)
      break;
    // Left-argument priority constraint: strictly lower for x, equal
    // allowed for y.
    int LeftMax = Def->Type == OpType::YFX ? Def->Priority : Def->Priority - 1;
    if (Left.Priority > LeftMax)
      break;

    bump();
    int RightMax =
        Def->Type == OpType::XFY ? Def->Priority : Def->Priority - 1;
    auto Right = parseExpr(RightMax);
    if (!Right)
      return Right.getError();
    Left.Term =
        Store.mkStruct2(Symbols.intern(OpName), Left.Term, *Right);
    Left.Priority = Def->Priority;
  }
  return Left;
}

ErrorOr<Parser::Parsed> Parser::parsePrimary() {
  switch (Cur.Kind) {
  case TokenKind::Error:
    return errorHere(Cur.Text);
  case TokenKind::EndOfFile:
  case TokenKind::End:
    return errorHere("unexpected end of clause");
  case TokenKind::Int: {
    TermRef T = Store.mkInt(Cur.IntValue);
    bump();
    return Parsed{T, 0};
  }
  case TokenKind::Var: {
    TermRef T = internVar(Cur.Text);
    bump();
    return Parsed{T, 0};
  }
  case TokenKind::Str: {
    // "abc" reads as the list of character codes.
    std::vector<TermRef> Codes;
    for (char C : Cur.Text)
      Codes.push_back(Store.mkInt(static_cast<unsigned char>(C)));
    bump();
    return Parsed{Store.mkList(Symbols, Codes), 0};
  }
  case TokenKind::LParen: {
    bump();
    auto Inner = parseExpr(1200);
    if (!Inner)
      return Inner.getError();
    if (Cur.Kind != TokenKind::RParen)
      return errorHere("expected ')'");
    bump();
    return Parsed{*Inner, 0};
  }
  case TokenKind::LBracket: {
    auto List = parseList();
    if (!List)
      return List.getError();
    return Parsed{*List, 0};
  }
  case TokenKind::Atom:
    break; // Handled below.
  default:
    return errorHere("unexpected token '" + Cur.Text + "'");
  }

  // Atom: plain, functor application, or prefix operator.
  std::string Name = Cur.Text;
  Token AtomTok = Cur;
  bump();

  // foo(Args...) — '(' must be adjacent to the atom.
  if (Cur.Kind == TokenKind::LParen && !Cur.PrecededByLayout) {
    bump();
    auto Struct = parseArgList(Symbols.intern(Name));
    if (!Struct)
      return Struct.getError();
    return Parsed{*Struct, 0};
  }

  // Prefix operator application.
  if (auto Def = Ops.prefix(Name)) {
    // "- 3" folds to the integer -3.
    if (Name == "-" && Cur.Kind == TokenKind::Int) {
      TermRef T = Store.mkInt(-Cur.IntValue);
      bump();
      return Parsed{T, 0};
    }
    if (tokenCanStartTerm(Cur)) {
      // Do not treat "f = g" as prefix application of '=': an atom that is
      // an infix-only operator cannot begin the operand of this prefix op
      // unless it is itself applied. We approximate standard behaviour by
      // rejecting operands that are bare infix operators followed by a
      // term-starting token (i.e. the next operator will consume our atom
      // as its left argument instead).
      bool OperandIsBareInfix = false;
      if (Cur.Kind == TokenKind::Atom && Ops.infix(Cur.Text) &&
          !Ops.prefix(Cur.Text))
        OperandIsBareInfix = true;
      if (!OperandIsBareInfix) {
        int ArgMax =
            Def->Type == OpType::FY ? Def->Priority : Def->Priority - 1;
        auto Arg = parseExpr(ArgMax);
        if (!Arg)
          return Arg.getError();
        TermRef T = Store.mkStruct(Symbols.intern(Name),
                                   std::span<const TermRef>(&*Arg, 1));
        return Parsed{T, Def->Priority};
      }
    }
  }

  // Plain atom. If it names an operator, it carries that priority when
  // used bare (e.g. (:-) as an argument), which argument contexts at
  // priority 999 would reject; we keep 0 for pragmatism.
  (void)AtomTok;
  return Parsed{Store.mkAtom(Symbols.intern(Name)), 0};
}

ErrorOr<TermRef> Parser::parseArgList(SymbolId Functor) {
  std::vector<TermRef> Args;
  while (true) {
    auto Arg = parseExpr(999);
    if (!Arg)
      return Arg.getError();
    Args.push_back(*Arg);
    if (Cur.Kind == TokenKind::Comma) {
      bump();
      continue;
    }
    break;
  }
  if (Cur.Kind != TokenKind::RParen)
    return errorHere("expected ')' or ',' in argument list");
  bump();
  return Store.mkStruct(Functor, Args);
}

ErrorOr<TermRef> Parser::parseList() {
  bump(); // '['
  if (Cur.Kind == TokenKind::RBracket) {
    bump();
    return Store.mkAtom(Symbols.Nil);
  }
  std::vector<TermRef> Elems;
  TermRef Tail = InvalidTerm;
  while (true) {
    auto Elem = parseExpr(999);
    if (!Elem)
      return Elem.getError();
    Elems.push_back(*Elem);
    if (Cur.Kind == TokenKind::Comma) {
      bump();
      continue;
    }
    if (Cur.Kind == TokenKind::Bar) {
      bump();
      auto TailOr = parseExpr(999);
      if (!TailOr)
        return TailOr.getError();
      Tail = *TailOr;
    }
    break;
  }
  if (Cur.Kind != TokenKind::RBracket)
    return errorHere("expected ']' in list");
  bump();
  return Store.mkList(Symbols, Elems, Tail);
}

ErrorOr<std::vector<TermRef>> Parser::parseProgram(SymbolTable &Symbols,
                                                   TermStore &Store,
                                                   std::string_view Text) {
  Parser P(Symbols, Store, Text);
  std::vector<TermRef> Clauses;
  while (true) {
    auto Clause = P.nextClause();
    if (!Clause)
      return Clause.getError();
    if (*Clause == InvalidTerm)
      return Clauses;
    Clauses.push_back(*Clause);
  }
}

ErrorOr<TermRef> Parser::parseTerm(SymbolTable &Symbols, TermStore &Store,
                                   std::string_view Text) {
  std::string Buffer(Text);
  // Ensure a terminating full stop so nextClause() accepts the input.
  size_t End = Buffer.find_last_not_of(" \t\r\n");
  if (End == std::string::npos)
    return Diagnostic("empty term");
  if (Buffer[End] != '.')
    Buffer += " .";
  Parser P(Symbols, Store, Buffer);
  auto T = P.nextClause();
  if (!T)
    return T.getError();
  if (*T == InvalidTerm)
    return Diagnostic("empty term");
  return *T;
}
