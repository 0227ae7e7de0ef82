package datastore

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
	"unicode"

	"campuslab/internal/packet"
	"campuslab/internal/traffic"
)

// The store's filter language gives analysts the "fast and flexible search
// capabilities" of §5 without shipping packets elsewhere. Examples:
//
//	proto == udp && dst.port == 53
//	src.ip in 10.0.0.0/8 && len > 1000
//	dns && dns.qtype == ANY && dns.resp
//	ts >= 5s && ts < 10s && tcp.syn && !tcp.ack
//
// Grammar (recursive descent):
//
//	expr    := or
//	or      := and ('||' and)*
//	and     := unary ('&&' unary)*
//	unary   := '!' unary | '(' expr ')' | comparison | flag
//	compare := field ('=='|'!='|'<'|'<='|'>'|'>='|'in') value

// predicate is a compiled filter.
type predicate func(*StoredPacket) bool

// Filter is a parsed, compiled filter expression. A Filter is immutable
// after ParseFilter returns and safe for concurrent use by any number of
// queries (which is what lets SelectExpr cache and share compiled filters
// across requests).
type Filter struct {
	expr string
	pred predicate
	// plan is the query plan the index-assisted engine derived from the
	// expression's AND-conjuncts (see plan.go).
	plan queryPlan
}

// source returns the original expression text.
func (f *Filter) source() string { return f.expr }

// match reports whether sp satisfies the filter.
func (f *Filter) match(sp *StoredPacket) bool { return f.pred(sp) }

// Indexable reports whether the planner found at least one posting-list
// conjunct in the expression — i.e. whether the index-assisted path is
// available (shards may still fall back to scanning on poor selectivity).
func (f *Filter) Indexable() bool { return f.plan.indexable }

// ParseFilter compiles a filter expression.
func ParseFilter(expr string) (*Filter, error) {
	p := &filterParser{input: expr}
	p.next()
	node, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("datastore: parsing %q: %w", expr, err)
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("datastore: parsing %q: trailing input at %q", expr, p.tok.text)
	}
	f := &Filter{expr: expr, pred: node.pred}
	f.plan = buildPlan(node)
	return f, nil
}

// MustFilter is ParseFilter that panics; for tests and constants.
func MustFilter(expr string) *Filter {
	f, err := ParseFilter(expr)
	if err != nil {
		panic(err)
	}
	return f
}

// --- lexer ---

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokDuration
	tokIP
	tokCIDR
	tokOp     // == != < <= > >= in
	tokAnd    // &&
	tokOr     // ||
	tokNot    // !
	tokLParen // (
	tokRParen // )
)

type token struct {
	kind tokKind
	text string
}

type filterParser struct {
	input string
	pos   int
	tok   token
}

func (p *filterParser) next() {
	for p.pos < len(p.input) && unicode.IsSpace(rune(p.input[p.pos])) {
		p.pos++
	}
	if p.pos >= len(p.input) {
		p.tok = token{kind: tokEOF}
		return
	}
	rest := p.input[p.pos:]
	switch {
	case strings.HasPrefix(rest, "&&"):
		p.tok = token{tokAnd, "&&"}
		p.pos += 2
	case strings.HasPrefix(rest, "||"):
		p.tok = token{tokOr, "||"}
		p.pos += 2
	case strings.HasPrefix(rest, "=="), strings.HasPrefix(rest, "!="),
		strings.HasPrefix(rest, "<="), strings.HasPrefix(rest, ">="):
		p.tok = token{tokOp, rest[:2]}
		p.pos += 2
	case rest[0] == '<' || rest[0] == '>':
		p.tok = token{tokOp, rest[:1]}
		p.pos++
	case rest[0] == '!':
		p.tok = token{tokNot, "!"}
		p.pos++
	case rest[0] == '(':
		p.tok = token{tokLParen, "("}
		p.pos++
	case rest[0] == ')':
		p.tok = token{tokRParen, ")"}
		p.pos++
	default:
		// word: ident, number, duration, IP, CIDR
		end := p.pos
		for end < len(p.input) {
			c := p.input[end]
			if unicode.IsSpace(rune(c)) || strings.ContainsRune("()!&|<>=", rune(c)) {
				break
			}
			end++
		}
		word := p.input[p.pos:end]
		p.pos = end
		p.tok = classifyWord(word)
	}
}

func classifyWord(w string) token {
	if w == "in" {
		return token{tokOp, "in"}
	}
	// A word that starts with an ASCII letter or '_' and has no ':' cannot
	// be an address, a prefix, a number or a duration: skip the probes,
	// each of which allocates an error when it fails.
	if w != "" && isIdentStart(w[0]) && !strings.Contains(w, ":") {
		return token{tokIdent, w}
	}
	if strings.Contains(w, "/") {
		if _, err := netip.ParsePrefix(w); err == nil {
			return token{tokCIDR, w}
		}
	}
	if _, err := netip.ParseAddr(w); err == nil {
		return token{tokIP, w}
	}
	if _, err := strconv.ParseUint(w, 10, 64); err == nil {
		return token{tokNumber, w}
	}
	if _, err := time.ParseDuration(w); err == nil && strings.IndexFunc(w, unicode.IsLetter) >= 0 {
		return token{tokDuration, w}
	}
	return token{tokIdent, w}
}

func isIdentStart(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// --- parser / compiler ---

// node carries a compiled predicate plus structural info for time-bound
// extraction and planning.
type node struct {
	pred predicate
	// and-children for bound extraction; comparisons on ts fill tsCmp.
	kind  string // "and", "or", "not", "cmp", "flag"
	kids  []*node
	tsOp  string
	tsVal time.Duration
	// key names the posting list whose membership is exactly equivalent to
	// this leaf (kind ixNone when the leaf is not indexable).
	key ixRef
}

func (p *filterParser) parseOr() (*node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, r := left.pred, right.pred
		left = &node{kind: "or", kids: []*node{left, right},
			pred: func(sp *StoredPacket) bool { return l(sp) || r(sp) }}
	}
	return left, nil
}

func (p *filterParser) parseAnd() (*node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAnd {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l, r := left.pred, right.pred
		left = &node{kind: "and", kids: []*node{left, right},
			pred: func(sp *StoredPacket) bool { return l(sp) && r(sp) }}
	}
	return left, nil
}

func (p *filterParser) parseUnary() (*node, error) {
	switch p.tok.kind {
	case tokNot:
		p.next()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		in := inner.pred
		return &node{kind: "not", kids: []*node{inner},
			pred: func(sp *StoredPacket) bool { return !in(sp) }}, nil
	case tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("missing ')' at %q", p.tok.text)
		}
		p.next()
		return inner, nil
	case tokIdent:
		return p.parseComparison()
	default:
		return nil, fmt.Errorf("unexpected token %q", p.tok.text)
	}
}

func (p *filterParser) parseComparison() (*node, error) {
	field := p.tok.text
	p.next()
	if p.tok.kind != tokOp {
		// bare flag: dns, dns.resp, tcp.syn, ...
		return flagNode(field)
	}
	op := p.tok.text
	p.next()
	val := p.tok
	if val.kind == tokEOF {
		return nil, fmt.Errorf("missing value after %s %s", field, op)
	}
	p.next()
	return compileComparison(field, op, val)
}

// tcpBits are the TCP header flags a bare field can test. None is indexed.
var tcpBits = map[string]packet.TCPFlags{
	"tcp.syn": packet.TCPSyn,
	"tcp.ack": packet.TCPAck,
	"tcp.fin": packet.TCPFin,
	"tcp.rst": packet.TCPRst,
	"tcp.psh": packet.TCPPsh,
}

// flagNode compiles a bare flag field. A flag of the key table carries an
// index descriptor and tests keyFlags, which the index files packets
// under: the flag posting list holds exactly the packets where it is true,
// so membership ⇔ predicate.
func flagNode(field string) (*node, error) {
	for fl, name := range flagKeys {
		if name == field {
			return &node{kind: "flag", key: ixRef{ixFlag, uint64(fl)},
				pred: func(sp *StoredPacket) bool { return keyFlags(sp)[fl] }}, nil
		}
	}
	if bit, ok := tcpBits[field]; ok {
		return &node{kind: "flag",
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasTCP && sp.Summary.TCPFlags.Has(bit) }}, nil
	}
	return nil, fmt.Errorf("unknown flag %q", field)
}

// compileComparison compiles `field op value`: a value family of the key
// table, or one of the residual fields.
func compileComparison(field, op string, val token) (*node, error) {
	for fi := range valueKeys {
		if valueKeys[fi].name == field {
			return keyNode(ixKind(fi+1), op, val)
		}
	}
	if compile, ok := residualFields[field]; ok {
		return compile(op, val)
	}
	return nil, fmt.Errorf("unknown field %q", field)
}

// keyNode compiles a comparison on one of the key table's value families,
// reading the packet through keyVal — what the index files it under, so
// an `==` leaf's posting list holds exactly the packets its predicate
// accepts and carries the index descriptor (a value outside the domain
// names an empty list, which is still exact). Every other operator is
// residual. Ports and links are numbers under all six operators; proto and
// label also take names, and only == and !=.
func keyNode(kind ixKind, op string, val token) (*node, error) {
	parse, named := keyNames[kind]
	if !named {
		parse = parseNumber
	}
	want, err := parse(val)
	if err != nil {
		return nil, err
	}
	if named && op != "==" && op != "!=" {
		return nil, fmt.Errorf("%s supports == and != only", valueKeys[kind-1].name)
	}
	pred, err := ordPredicate(op, func(sp *StoredPacket) int64 { return int64(keyVal(sp, kind)) }, want)
	if err != nil {
		return nil, err
	}
	n := &node{kind: "cmp", pred: pred}
	if op == "==" {
		n.key = ixRef{kind, uint64(want)}
	}
	return n, nil
}

// keyNames are the value families whose values have names.
var keyNames = map[ixKind]func(token) (int64, error){ixProto: parseProto, ixLabel: parseLabel}

// parseNumber saturates at MaxInt64, which no numeric field reaches.
func parseNumber(val token) (int64, error) {
	if val.kind != tokNumber {
		return 0, fmt.Errorf("numeric field compares against a number, got %q", val.text)
	}
	n, _ := strconv.ParseInt(val.text, 10, 64)
	return n, nil
}

func parseProto(val token) (int64, error) {
	if val.kind != tokIdent && val.kind != tokNumber {
		return 0, fmt.Errorf("proto compares against a name or number")
	}
	switch strings.ToLower(val.text) {
	case "tcp":
		return int64(packet.IPProtocolTCP), nil
	case "udp":
		return int64(packet.IPProtocolUDP), nil
	case "icmp":
		return int64(packet.IPProtocolICMPv4), nil
	}
	n, err := strconv.ParseUint(val.text, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("unknown protocol %q", val.text)
	}
	return int64(n), nil
}

// parseLabel reads a packet-level ground-truth label (from labeled
// generators): label == dns-amp, label != benign, or a numeric class id.
func parseLabel(val token) (int64, error) {
	for l := traffic.LabelBenign; l < traffic.NumLabels; l++ {
		if l.String() == val.text {
			return int64(l), nil
		}
	}
	n, err := strconv.ParseUint(val.text, 10, 8)
	if err != nil || traffic.Label(n) >= traffic.NumLabels {
		return 0, fmt.Errorf("unknown label %q", val.text)
	}
	return int64(n), nil
}

// residualFields are the comparison fields no posting list answers, by
// filter name. (ts is not indexed either: its top-level conjuncts become
// the plan's window.)
var residualFields = map[string]func(op string, val token) (*node, error){
	"ts":          tsNode,
	"len":         numericField(func(sp *StoredPacket) int64 { return int64(sp.Summary.WireLen) }),
	"payload.len": numericField(func(sp *StoredPacket) int64 { return int64(sp.Summary.PayloadLen) }),
	"ttl":         numericField(func(sp *StoredPacket) int64 { return int64(sp.Summary.TTL) }),
	"dns.answers": numericField(func(sp *StoredPacket) int64 { return int64(sp.Summary.DNSAnswerCnt) }),
	"src.ip":      addrField(func(sp *StoredPacket) netip.Addr { return sp.Summary.Tuple.SrcIP }),
	"dst.ip":      addrField(func(sp *StoredPacket) netip.Addr { return sp.Summary.Tuple.DstIP }),
	"dns.qtype":   qtypeNode,
}

func tsNode(op string, val token) (*node, error) {
	if val.kind != tokDuration && val.kind != tokNumber {
		return nil, fmt.Errorf("ts compares against a duration, got %q", val.text)
	}
	var d time.Duration
	if val.kind == tokDuration {
		d, _ = time.ParseDuration(val.text)
	} else {
		n, _ := strconv.ParseInt(val.text, 10, 64)
		d = time.Duration(n) * time.Second
	}
	pred, err := ordPredicate(op, func(sp *StoredPacket) int64 { return int64(sp.TS) }, int64(d))
	if err != nil {
		return nil, err
	}
	return &node{kind: "cmp", tsOp: op, tsVal: d, pred: pred}, nil
}

func numericField(get func(*StoredPacket) int64) func(string, token) (*node, error) {
	return func(op string, val token) (*node, error) {
		want, err := parseNumber(val)
		if err != nil {
			return nil, err
		}
		pred, err := ordPredicate(op, get, want)
		if err != nil {
			return nil, err
		}
		return &node{kind: "cmp", pred: pred}, nil
	}
}

func addrField(get func(*StoredPacket) netip.Addr) func(string, token) (*node, error) {
	return func(op string, val token) (*node, error) {
		switch {
		case op == "in" && val.kind == tokCIDR:
			pfx := netip.MustParsePrefix(val.text)
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return pfx.Contains(get(sp)) }}, nil
		case (op == "==" || op == "!=") && val.kind == tokIP:
			want := netip.MustParseAddr(val.text)
			eq := op == "=="
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return (get(sp) == want) == eq }}, nil
		default:
			return nil, fmt.Errorf("address field: %s %q not supported", op, val.text)
		}
	}
}

// dnsTypeNames are the query types dns.qtype accepts by name; any other
// type is its number.
var dnsTypeNames = map[string]packet.DNSType{
	"A": packet.DNSTypeA, "AAAA": packet.DNSTypeAAAA, "ANY": packet.DNSTypeANY,
	"TXT": packet.DNSTypeTXT, "NS": packet.DNSTypeNS, "MX": packet.DNSTypeMX,
}

func qtypeNode(op string, val token) (*node, error) {
	want, named := dnsTypeNames[strings.ToUpper(val.text)]
	if !named {
		n, err := strconv.ParseUint(val.text, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("unknown dns type %q", val.text)
		}
		want = packet.DNSType(n)
	}
	if op != "==" && op != "!=" {
		return nil, fmt.Errorf("dns.qtype supports == and != only")
	}
	eq := op == "=="
	return &node{kind: "cmp", pred: func(sp *StoredPacket) bool {
		return sp.Summary.IsDNS && (sp.Summary.DNSQueryType == want) == eq
	}}, nil
}

func ordPredicate(op string, get func(*StoredPacket) int64, want int64) (predicate, error) {
	switch op {
	case "==":
		return func(sp *StoredPacket) bool { return get(sp) == want }, nil
	case "!=":
		return func(sp *StoredPacket) bool { return get(sp) != want }, nil
	case "<":
		return func(sp *StoredPacket) bool { return get(sp) < want }, nil
	case "<=":
		return func(sp *StoredPacket) bool { return get(sp) <= want }, nil
	case ">":
		return func(sp *StoredPacket) bool { return get(sp) > want }, nil
	case ">=":
		return func(sp *StoredPacket) bool { return get(sp) >= want }, nil
	default:
		return nil, fmt.Errorf("operator %q not valid here", op)
	}
}
