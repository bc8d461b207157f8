// Package sql implements a small SQL frontend for the dialect the paper's
// workloads use: single- and two-table SELECT queries with arithmetic,
// comparisons, BETWEEN/IN/LIKE/CASE, date and fixed-point decimal
// literals, GROUP BY, ORDER BY and LIMIT. Queries parse into the logical
// plans of internal/plan, which every engine in the repository executes.
package sql

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber // integer or decimal literal
	tokString // 'quoted'
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. Keywords are returned as tokIdent; the parser
// compares case-insensitively.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.emit(tokEOF, "")
			return l.toks, nil
		}
		c := l.src[l.pos]
		switch {
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.emitAt(tokIdent, l.src[start:l.pos], start)
		case c >= '0' && c <= '9':
			start := l.pos
			seenDot := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if ch == '.' && !seenDot {
					seenDot = true
					l.pos++
					continue
				}
				if ch < '0' || ch > '9' {
					break
				}
				l.pos++
			}
			l.emitAt(tokNumber, l.src[start:l.pos], start)
		case c == '\'':
			start := l.pos
			l.pos++
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("sql: unterminated string at %d", start)
				}
				ch := l.src[l.pos]
				if ch == '\'' {
					// '' escapes a quote.
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						sb.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				sb.WriteByte(ch)
				l.pos++
			}
			l.emitAt(tokString, sb.String(), start)
		default:
			// Multi-char operators first.
			for _, op := range []string{"<=", ">=", "<>", "!="} {
				if strings.HasPrefix(l.src[l.pos:], op) {
					l.emit(tokSymbol, op)
					l.pos += 2
					goto next
				}
			}
			if strings.ContainsRune("+-*/()<>=,.", rune(c)) {
				l.emit(tokSymbol, string(c))
				l.pos++
			} else {
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, l.pos)
			}
		next:
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) && IsSpace(l.src[l.pos]) {
		l.pos++
	}
}

// IsSpace reports whether the lexer skips c between tokens. It is the one
// definition of whitespace: a statement cache that collapses whitespace must
// collapse exactly these bytes, or a text the lexer rejects could share a
// cache key with one it accepts.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func (l *lexer) emit(k tokKind, text string)          { l.emitAt(k, text, l.pos) }
func (l *lexer) emitAt(k tokKind, text string, p int) { l.toks = append(l.toks, token{k, text, p}) }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }
