//===- Lexer.cpp - Prolog tokenizer ----------------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "reader/Lexer.h"

#include <cctype>
#include <charconv>

using namespace lpa;

bool lpa::isSymbolChar(char C) {
  switch (C) {
  case '+': case '-': case '*': case '/': case '\\': case '^':
  case '<': case '>': case '=': case '~': case ':': case '.':
  case '?': case '@': case '#': case '&': case '$':
    return true;
  default:
    return false;
  }
}

char Lexer::advance() {
  char C = peek();
  ++Offset;
  if (C == '\n') {
    ++Line;
    LineStart = Offset;
  }
  return C;
}

bool Lexer::skipLayout() {
  bool Skipped = false;
  while (true) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      Skipped = true;
      continue;
    }
    if (C == '%') {
      while (peek() != '\n' && peek() != '\0')
        advance();
      Skipped = true;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!(peek() == '*' && peek(1) == '/') && peek() != '\0')
        advance();
      if (peek() != '\0') {
        advance();
        advance();
      }
      Skipped = true;
      continue;
    }
    return Skipped;
  }
}

Token Lexer::make(TokenKind Kind, std::string TokText) {
  Token T;
  T.Kind = Kind;
  T.Text = std::move(TokText);
  T.Pos = pos();
  return T;
}

Token Lexer::lexQuoted(char Quote) {
  Token T = make(Quote == '\'' ? TokenKind::Atom : TokenKind::Str);
  advance(); // Opening quote.
  std::string Body;
  while (true) {
    char C = peek();
    if (C == '\0') {
      T.Kind = TokenKind::Error;
      T.Text = "unterminated quoted token";
      return T;
    }
    if (C == Quote) {
      advance();
      if (peek() == Quote) { // Doubled quote = literal quote.
        Body += Quote;
        advance();
        continue;
      }
      break;
    }
    if (C == '\\') {
      advance();
      char E = advance();
      switch (E) {
      case 'n': Body += '\n'; break;
      case 't': Body += '\t'; break;
      case 'r': Body += '\r'; break;
      case 'a': Body += '\a'; break;
      case 'b': Body += '\b'; break;
      case 'f': Body += '\f'; break;
      case 'v': Body += '\v'; break;
      case '0': Body += '\0'; break;
      default: Body += E; break;
      }
      continue;
    }
    Body += advance();
  }
  T.Text = std::move(Body);
  return T;
}

Token Lexer::next() {
  bool Layout = skipLayout();
  char C = peek();
  Token T;

  if (C == '\0') {
    T = make(TokenKind::EndOfFile);
  } else if (std::isdigit(static_cast<unsigned char>(C))) {
    T = make(TokenKind::Int);
    std::string Digits;
    while (std::isdigit(static_cast<unsigned char>(peek())))
      Digits += advance();
    // 0'c character-code syntax.
    if (Digits == "0" && peek() == '\'' && peek(1) != '\0') {
      advance();
      char Code = advance();
      if (Code == '\\') {
        char E = advance();
        switch (E) {
        case 'n': Code = '\n'; break;
        case 't': Code = '\t'; break;
        default: Code = E; break;
        }
      }
      T.IntValue = static_cast<unsigned char>(Code);
      T.Text = std::to_string(T.IntValue);
    } else if (std::from_chars(Digits.data(), Digits.data() + Digits.size(),
                               T.IntValue)
                   .ec != std::errc()) {
      T.Kind = TokenKind::Error;
      T.Text = "integer literal out of range";
    } else {
      T.Text = std::move(Digits);
    }
  } else if (C == '_' || std::isupper(static_cast<unsigned char>(C))) {
    T = make(TokenKind::Var);
    std::string Name;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      Name += advance();
    T.Text = std::move(Name);
  } else if (std::islower(static_cast<unsigned char>(C))) {
    T = make(TokenKind::Atom);
    std::string Name;
    while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
      Name += advance();
    T.Text = std::move(Name);
  } else if (C == '\'') {
    T = lexQuoted('\'');
  } else if (C == '"') {
    T = lexQuoted('"');
  } else {
    switch (C) {
    case '(': advance(); T = make(TokenKind::LParen, "("); break;
    case ')': advance(); T = make(TokenKind::RParen, ")"); break;
    case '[': advance(); T = make(TokenKind::LBracket, "["); break;
    case ']': advance(); T = make(TokenKind::RBracket, "]"); break;
    case '{': advance(); T = make(TokenKind::Atom, "{}"); break; // Rare; "{}"
    case '}': advance(); T = make(TokenKind::Atom, "}"); break;
    case ',': advance(); T = make(TokenKind::Comma, ","); break;
    case '|': advance(); T = make(TokenKind::Bar, "|"); break;
    case '!': advance(); T = make(TokenKind::Atom, "!"); break;
    case ';': advance(); T = make(TokenKind::Atom, ";"); break;
    default:
      if (isSymbolChar(C)) {
        // A '.' followed by layout or EOF terminates a clause.
        if (C == '.') {
          char After = peek(1);
          if (After == '\0' ||
              std::isspace(static_cast<unsigned char>(After)) ||
              After == '%') {
            advance();
            T = make(TokenKind::End, ".");
            break;
          }
        }
        T = make(TokenKind::Atom);
        std::string Name;
        while (isSymbolChar(peek()))
          Name += advance();
        T.Text = std::move(Name);
      } else {
        T = make(TokenKind::Error,
                 std::string("unexpected character '") + C + "'");
        advance();
      }
      break;
    }
  }

  T.PrecededByLayout = Layout;
  return T;
}
