package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/reprolab/swole/internal/expr"
	"github.com/reprolab/swole/internal/storage"
)

// selectItem is one SELECT-list entry. hidden marks aggregates hoisted out
// of the HAVING clause: they participate in aggregation but are projected
// away before rows are returned.
type selectItem struct {
	agg    string // "", "sum", "count", "avg", "min", "max"
	arg    expr.Expr
	star   bool // count(*)
	as     string
	hidden bool
}

// orderItem is one ORDER BY entry.
type orderItem struct {
	col  string
	desc bool
}

// stmt is a parsed SELECT statement.
type stmt struct {
	items   []selectItem
	tables  []string
	where   expr.Expr
	groupBy []string
	having  expr.Expr
	orderBy []orderItem
	limit   int
}

type parser struct {
	toks []token
	pos  int
	st   *stmt
	// inHaving makes parsePrimary accept aggregate calls, hoisting each
	// into a hidden select item and substituting a reference to its alias.
	inHaving bool
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) isKw(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, s)
}

func (p *parser) acceptKw(s string) bool {
	if p.isKw(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(s string) error {
	if !p.acceptKw(s) {
		return fmt.Errorf("sql: expected %s at position %d, got %q", s, p.peek().pos, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSym(s string) bool {
	t := p.peek()
	if t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("sql: expected %q at position %d, got %q", s, p.peek().pos, p.peek().text)
	}
	return nil
}

// parse parses a full SELECT statement.
func parse(src string) (*stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	s := &stmt{}
	p.st = s
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.items = append(s.items, item)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("sql: expected table name, got %q", t.text)
		}
		s.tables = append(s.tables, strings.ToLower(t.text))
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("where") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.where = w
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			s.groupBy = append(s.groupBy, c)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		p.inHaving = true
		h, err := p.parseExpr()
		p.inHaving = false
		if err != nil {
			return nil, err
		}
		s.having = h
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColumnName()
			if err != nil {
				return nil, err
			}
			it := orderItem{col: c}
			if p.acceptKw("desc") {
				it.desc = true
			} else {
				p.acceptKw("asc")
			}
			s.orderBy = append(s.orderBy, it)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("sql: expected limit count, got %q", t.text)
		}
		n, err := strconv.Atoi(t.text)
		if err != nil {
			return nil, err
		}
		s.limit = n
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("sql: unexpected trailing input %q at %d", p.peek().text, p.peek().pos)
	}
	return s, nil
}

var aggNames = map[string]bool{"sum": true, "count": true, "avg": true, "min": true, "max": true}

func (p *parser) parseSelectItem() (selectItem, error) {
	var item selectItem
	if p.atAggCall() {
		agg, arg, star, err := p.parseAggCall()
		if err != nil {
			return item, err
		}
		item.agg, item.arg, item.star = agg, arg, star
	} else {
		e, err := p.parseExpr()
		if err != nil {
			return item, err
		}
		item.arg = e
	}
	if p.acceptKw("as") {
		n := p.next()
		if n.kind != tokIdent {
			return item, fmt.Errorf("sql: expected alias, got %q", n.text)
		}
		item.as = strings.ToLower(n.text)
	}
	return item, nil
}

// atAggCall reports whether the parser sits on `agg(`.
func (p *parser) atAggCall() bool {
	t := p.peek()
	return t.kind == tokIdent && aggNames[strings.ToLower(t.text)] &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "("
}

// parseAggCall consumes `agg ( * | expr )`.
func (p *parser) parseAggCall() (agg string, arg expr.Expr, star bool, err error) {
	agg = strings.ToLower(p.next().text)
	p.next() // (
	if p.acceptSym("*") {
		if agg != "count" {
			return "", nil, false, fmt.Errorf("sql: %s(*) is not defined; only count takes *", agg)
		}
		star = true
	} else {
		arg, err = p.parseExpr()
		if err != nil {
			return "", nil, false, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return "", nil, false, err
	}
	return agg, arg, star, nil
}

// parseColumnName accepts ident or ident.ident (qualifier dropped; column
// names in the workloads are globally unique by table prefix).
func (p *parser) parseColumnName() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sql: expected column, got %q", t.text)
	}
	name := t.text
	if p.acceptSym(".") {
		n := p.next()
		if n.kind != tokIdent {
			return "", fmt.Errorf("sql: expected column after qualifier")
		}
		name = n.text
	}
	return strings.ToLower(name), nil
}

// Expression grammar (lowest to highest precedence):
//   or_expr   := and_expr (OR and_expr)*
//   and_expr  := not_expr (AND not_expr)*
//   not_expr  := NOT not_expr | predicate
//   predicate := additive ((cmp additive) | BETWEEN .. AND .. | [NOT] IN (..) | [NOT] LIKE '..')?
//   additive  := multiplicative ((+|-) multiplicative)*
//   multiplicative := primary ((*|/) primary)*
//   primary   := number | string | date '..' | CASE .. END | ( or_expr ) | column

func (p *parser) parseExpr() (expr.Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	args := []expr.Expr{left}
	for p.acceptKw("or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		args = append(args, right)
	}
	if len(args) == 1 {
		return left, nil
	}
	return &expr.Logic{Op: expr.Or, Args: args}, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	args := []expr.Expr{left}
	for p.isKw("and") {
		// Don't consume the AND of an enclosing BETWEEN.
		p.pos++
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		args = append(args, right)
	}
	if len(args) == 1 {
		return left, nil
	}
	return &expr.Logic{Op: expr.And, Args: args}, nil
}

func (p *parser) parseNot() (expr.Expr, error) {
	if p.acceptKw("not") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &expr.Logic{Op: expr.Not, Args: []expr.Expr{inner}}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]expr.CmpOp{
	"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
	"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.isKw("not") && p.pos+1 < len(p.toks) {
		nx := p.toks[p.pos+1]
		if nx.kind == tokIdent && (strings.EqualFold(nx.text, "like") || strings.EqualFold(nx.text, "in") || strings.EqualFold(nx.text, "between")) {
			p.pos++
			negate = true
		}
	}
	switch {
	case p.acceptKw("between"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var out expr.Expr = &expr.Between{X: left, Lo: lo, Hi: hi}
		if negate {
			out = &expr.Logic{Op: expr.Not, Args: []expr.Expr{out}}
		}
		return out, nil
	case p.acceptKw("in"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var list []expr.Expr
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		var out expr.Expr = &expr.In{X: left, List: list}
		if negate {
			out = &expr.Logic{Op: expr.Not, Args: []expr.Expr{out}}
		}
		return out, nil
	case p.acceptKw("like"):
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sql: LIKE requires a string pattern")
		}
		return &expr.Like{X: left, Pattern: t.text, Negate: negate}, nil
	}
	if t := p.peek(); t.kind == tokSymbol {
		if op, ok := cmpOps[t.text]; ok {
			p.pos++
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &expr.Cmp{Op: op, L: left, R: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (expr.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("+"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &expr.Arith{Op: expr.Add, L: left, R: right}
		case p.acceptSym("-"):
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &expr.Arith{Op: expr.Sub, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (expr.Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSym("*"):
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = &expr.Arith{Op: expr.Mul, L: left, R: right}
		case p.acceptSym("/"):
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			left = &expr.Arith{Op: expr.Div, L: left, R: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	t := p.peek()
	switch {
	case p.acceptSym("-"):
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		// Fold negative literals; otherwise emit 0 - x.
		if c, ok := inner.(*expr.Const); ok {
			return &expr.Const{Val: -c.Val}, nil
		}
		return &expr.Arith{Op: expr.Sub, L: &expr.Const{Val: 0}, R: inner}, nil
	case t.kind == tokNumber:
		p.pos++
		return numberLit(t.text)
	case t.kind == tokString:
		p.pos++
		return &expr.StrConst{Val: t.text}, nil
	case p.acceptSym("("):
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.isKw("date"):
		p.pos++
		s := p.next()
		if s.kind != tokString {
			return nil, fmt.Errorf("sql: date requires a 'YYYY-MM-DD' literal")
		}
		d, err := storage.ParseDate(s.text)
		if err != nil {
			return nil, err
		}
		return &expr.Const{Val: int64(d), Repr: "date '" + s.text + "'"}, nil
	case p.isKw("case"):
		return p.parseCase()
	case p.inHaving && p.atAggCall():
		agg, arg, star, err := p.parseAggCall()
		if err != nil {
			return nil, err
		}
		alias := fmt.Sprintf("__h%d", len(p.st.items))
		p.st.items = append(p.st.items, selectItem{
			agg: agg, arg: arg, star: star, as: alias, hidden: true,
		})
		return expr.NewCol(alias), nil
	case t.kind == tokIdent:
		name, err := p.parseColumnName()
		if err != nil {
			return nil, err
		}
		return expr.NewCol(name), nil
	}
	return nil, fmt.Errorf("sql: unexpected token %q at %d", t.text, t.pos)
}

func (p *parser) parseCase() (expr.Expr, error) {
	p.pos++ // case
	c := &expr.Case{}
	for p.acceptKw("when") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, expr.CaseWhen{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE without WHEN")
	}
	if p.acceptKw("else") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return c, nil
}

// numberLit parses integer and decimal literals. Decimals become
// fixed-point values scaled by 10^storage.DecimalScale; more fractional
// digits than the scale is an error rather than silent truncation.
func numberLit(text string) (expr.Expr, error) {
	dot := strings.IndexByte(text, '.')
	if dot < 0 {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sql: bad number %q", text)
		}
		return &expr.Const{Val: v}, nil
	}
	whole, frac := text[:dot], text[dot+1:]
	if len(frac) > storage.DecimalScale {
		return nil, fmt.Errorf("sql: literal %q exceeds fixed-point scale %d", text, storage.DecimalScale)
	}
	for len(frac) < storage.DecimalScale {
		frac += "0"
	}
	w, err := strconv.ParseInt(whole, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad number %q", text)
	}
	f, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("sql: bad number %q", text)
	}
	return &expr.Const{Val: w*100 + f, Repr: text}, nil
}
