// Package metrics implements the small expression language used to define
// derived performance metrics from raw counter deltas. The paper's tool
// displays "ratios of interest (IPC, miss ratio, branch misprediction,
// etc.)" computed from counter values and lets the user customize the
// columns; this package provides the syntax and evaluation machinery:
//
//	IPC   = INSTRUCTIONS / CYCLES
//	DMIS  = per100(CACHE_MISSES, INSTRUCTIONS)
//	%MISP = 100 * BRANCH_MISSES / BRANCHES
//
// Identifiers resolve to positions of a slot vector the caller fills
// (Expr.Bind; Expr.Eval is the by-name adapter over it): event names
// read the event's delta since the previous refresh, and a handful of
// context variables (DELTA_NS, FREQ_HZ, CPU_PCT) expose the sampling
// period, the nominal clock frequency, and OS CPU usage.
package metrics

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token categories.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNumber
	tokIdent
	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
	tokLParen
	tokRParen
	tokComma
	tokLT
	tokGT
	tokLE
	tokGE
	tokEQ
	tokNE
	tokQuestion
	tokColon
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of expression"
	case tokNumber:
		return "number"
	case tokIdent:
		return "identifier"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	case tokPercent:
		return "'%'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokLT:
		return "'<'"
	case tokGT:
		return "'>'"
	case tokLE:
		return "'<='"
	case tokGE:
		return "'>='"
	case tokEQ:
		return "'=='"
	case tokNE:
		return "'!='"
	case tokQuestion:
		return "'?'"
	case tokColon:
		return "':'"
	}
	return "unknown token"
}

// token is one lexical unit with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// SyntaxError describes a lexing or parsing failure with its position in
// the source expression.
type SyntaxError struct {
	Pos int
	Msg string
	Src string
	// Hint is an optional actionable suggestion ("did you mean
	// CYCLES?"), kept separate from Msg so the HTTP error envelope can
	// carry it structurally.
	Hint string
}

func (e *SyntaxError) Error() string {
	msg := e.Msg
	if e.Hint != "" {
		msg += " (" + e.Hint + ")"
	}
	return fmt.Sprintf("metrics: %s at offset %d in %q", msg, e.Pos, e.Src)
}

// lexer produces tokens from an expression source string.
type lexer struct {
	src string
	pos int
}

func isIdentStart(r rune) bool {
	return r == '_' || r == '%' && false || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lex tokenizes the whole source string.
func lex(src string) ([]token, error) {
	lx := &lexer{src: src}
	var toks []token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.kind == tokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) errf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...), Src: lx.src}
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) && (lx.src[lx.pos] == ' ' || lx.src[lx.pos] == '\t' ||
		lx.src[lx.pos] == '\n' || lx.src[lx.pos] == '\r') {
		lx.pos++
	}
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '+':
		lx.pos++
		return token{tokPlus, "+", start}, nil
	case '-':
		lx.pos++
		return token{tokMinus, "-", start}, nil
	case '*':
		lx.pos++
		return token{tokStar, "*", start}, nil
	case '/':
		lx.pos++
		return token{tokSlash, "/", start}, nil
	case '%':
		lx.pos++
		return token{tokPercent, "%", start}, nil
	case '(':
		lx.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		lx.pos++
		return token{tokRParen, ")", start}, nil
	case ',':
		lx.pos++
		return token{tokComma, ",", start}, nil
	case '?':
		lx.pos++
		return token{tokQuestion, "?", start}, nil
	case ':':
		lx.pos++
		return token{tokColon, ":", start}, nil
	case '<':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{tokLE, "<=", start}, nil
		}
		return token{tokLT, "<", start}, nil
	case '>':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return token{tokGE, ">=", start}, nil
		}
		return token{tokGT, ">", start}, nil
	case '=':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{tokEQ, "==", start}, nil
		}
		return token{}, lx.errf(start, "unexpected '='; did you mean '=='")
	case '!':
		if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '=' {
			lx.pos += 2
			return token{tokNE, "!=", start}, nil
		}
		return token{}, lx.errf(start, "unexpected '!'; did you mean '!='")
	}
	if c >= '0' && c <= '9' || c == '.' {
		return lx.lexNumber()
	}
	r := rune(c)
	if isIdentStart(r) {
		return lx.lexIdent()
	}
	return token{}, lx.errf(start, "unexpected character %q", c)
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	seenDot, seenExp := false, false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos > start:
			seenExp = true
			lx.pos++
			if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
				lx.pos++
			}
		default:
			goto done
		}
	}
done:
	text := lx.src[start:lx.pos]
	if text == "." {
		return token{}, lx.errf(start, "malformed number")
	}
	if strings.HasSuffix(text, "e") || strings.HasSuffix(text, "E") ||
		strings.HasSuffix(text, "+") || strings.HasSuffix(text, "-") {
		return token{}, lx.errf(start, "malformed exponent in number %q", text)
	}
	return token{tokNumber, text, start}, nil
}

func (lx *lexer) lexIdent() (token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
		lx.pos++
	}
	return token{tokIdent, lx.src[start:lx.pos], start}, nil
}
