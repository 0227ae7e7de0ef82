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

// Predicate is a compiled filter.
type Predicate func(*StoredPacket) bool

// Filter is a parsed, compiled filter expression. A Filter is immutable
// after ParseFilter returns and safe for concurrent use by any number of
// queries (which is what lets SelectExpr cache and share compiled filters
// across requests).
type Filter struct {
	expr string
	pred Predicate
	// plan is the query plan the index-assisted engine derived from the
	// expression's AND-conjuncts (see plan.go).
	plan queryPlan
}

// Expr returns the original expression text.
func (f *Filter) Expr() string { return f.expr }

// Match reports whether sp satisfies the filter.
func (f *Filter) Match(sp *StoredPacket) bool { return f.pred(sp) }

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

// --- parser / compiler ---

// node carries a compiled predicate plus structural info for time-bound
// extraction and planning.
type node struct {
	pred Predicate
	// and-children for bound extraction; comparisons on ts fill tsCmp.
	kind  string // "and", "or", "not", "cmp", "flag"
	kids  []*node
	tsOp  string
	tsVal time.Duration
	// ix/ixVal describe the posting list whose membership is exactly
	// equivalent to this leaf (ixNone when the leaf is not indexable).
	ix    ixKind
	ixVal uint64
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

// flagNode compiles a bare flag field. Positive summary flags carry an
// index descriptor: the flag posting list holds exactly the packets where
// the flag is true, so membership ⇔ predicate.
func flagNode(field string) (*node, error) {
	switch field {
	case "dns":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagDNS,
			pred: func(sp *StoredPacket) bool { return sp.Summary.IsDNS }}, nil
	case "dns.resp":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagDNSResp,
			pred: func(sp *StoredPacket) bool { return sp.Summary.DNSResponse }}, nil
	case "tcp":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagTCP,
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasTCP }}, nil
	case "udp":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagUDP,
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasUDP }}, nil
	case "icmp":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagICMP,
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasICMP }}, nil
	case "ip":
		return &node{kind: "flag", ix: ixFlag, ixVal: flagIP,
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasIP }}, nil
	case "tcp.syn", "tcp.ack", "tcp.fin", "tcp.rst", "tcp.psh":
		var bit packet.TCPFlags
		switch field {
		case "tcp.syn":
			bit = packet.TCPSyn
		case "tcp.ack":
			bit = packet.TCPAck
		case "tcp.fin":
			bit = packet.TCPFin
		case "tcp.rst":
			bit = packet.TCPRst
		case "tcp.psh":
			bit = packet.TCPPsh
		}
		return &node{kind: "flag",
			pred: func(sp *StoredPacket) bool { return sp.Summary.HasTCP && sp.Summary.TCPFlags.Has(bit) }}, nil
	default:
		return nil, fmt.Errorf("unknown flag %q", field)
	}
}

func compileComparison(field, op string, val token) (*node, error) {
	switch field {
	case "ts":
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
	case "len":
		return numericNode(op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.WireLen) })
	case "payload.len":
		return numericNode(op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.PayloadLen) })
	case "ttl":
		return numericNode(op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.TTL) })
	case "src.port":
		return indexedNumericNode(ixSrcPort, op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.Tuple.SrcPort) })
	case "dst.port":
		return indexedNumericNode(ixDstPort, op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.Tuple.DstPort) })
	case "dns.answers":
		return numericNode(op, val, func(sp *StoredPacket) int64 { return int64(sp.Summary.DNSAnswerCnt) })
	case "link":
		return indexedNumericNode(ixLink, op, val, func(sp *StoredPacket) int64 { return int64(sp.Link) })
	case "src.ip", "dst.ip":
		get := func(sp *StoredPacket) netip.Addr { return sp.Summary.Tuple.SrcIP }
		if field == "dst.ip" {
			get = func(sp *StoredPacket) netip.Addr { return sp.Summary.Tuple.DstIP }
		}
		switch {
		case op == "in" && val.kind == tokCIDR:
			pfx := netip.MustParsePrefix(val.text)
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return pfx.Contains(get(sp)) }}, nil
		case (op == "==" || op == "!=") && val.kind == tokIP:
			want := netip.MustParseAddr(val.text)
			eq := op == "=="
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return (get(sp) == want) == eq }}, nil
		default:
			return nil, fmt.Errorf("%s %s %q not supported", field, op, val.text)
		}
	case "proto":
		if val.kind != tokIdent && val.kind != tokNumber {
			return nil, fmt.Errorf("proto compares against a name or number")
		}
		var want packet.IPProtocol
		switch strings.ToLower(val.text) {
		case "tcp":
			want = packet.IPProtocolTCP
		case "udp":
			want = packet.IPProtocolUDP
		case "icmp":
			want = packet.IPProtocolICMPv4
		default:
			n, err := strconv.ParseUint(val.text, 10, 8)
			if err != nil {
				return nil, fmt.Errorf("unknown protocol %q", val.text)
			}
			want = packet.IPProtocol(n)
		}
		switch op {
		case "==":
			return &node{kind: "cmp", ix: ixProto, ixVal: uint64(want),
				pred: func(sp *StoredPacket) bool { return sp.Summary.Tuple.Proto == want }}, nil
		case "!=":
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return sp.Summary.Tuple.Proto != want }}, nil
		default:
			return nil, fmt.Errorf("proto supports == and != only")
		}
	case "label":
		// Packet-level ground-truth label (from labeled generators):
		// label == dns-amp, label != benign, or a numeric class id.
		var want traffic.Label
		found := false
		for l := traffic.LabelBenign; l < traffic.NumLabels; l++ {
			if l.String() == val.text {
				want, found = l, true
				break
			}
		}
		if !found {
			n, err := strconv.ParseUint(val.text, 10, 8)
			if err != nil || traffic.Label(n) >= traffic.NumLabels {
				return nil, fmt.Errorf("unknown label %q", val.text)
			}
			want = traffic.Label(n)
		}
		switch op {
		case "==":
			return &node{kind: "cmp", ix: ixLabel, ixVal: uint64(want),
				pred: func(sp *StoredPacket) bool { return sp.Label == want }}, nil
		case "!=":
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return sp.Label != want }}, nil
		default:
			return nil, fmt.Errorf("label supports == and != only")
		}
	case "dns.qtype":
		var want packet.DNSType
		switch strings.ToUpper(val.text) {
		case "A":
			want = packet.DNSTypeA
		case "AAAA":
			want = packet.DNSTypeAAAA
		case "ANY":
			want = packet.DNSTypeANY
		case "TXT":
			want = packet.DNSTypeTXT
		case "NS":
			want = packet.DNSTypeNS
		case "MX":
			want = packet.DNSTypeMX
		default:
			n, err := strconv.ParseUint(val.text, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("unknown dns type %q", val.text)
			}
			want = packet.DNSType(n)
		}
		switch op {
		case "==":
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return sp.Summary.IsDNS && sp.Summary.DNSQueryType == want }}, nil
		case "!=":
			return &node{kind: "cmp", pred: func(sp *StoredPacket) bool { return sp.Summary.IsDNS && sp.Summary.DNSQueryType != want }}, nil
		default:
			return nil, fmt.Errorf("dns.qtype supports == and != only")
		}
	default:
		return nil, fmt.Errorf("unknown field %q", field)
	}
}

func numericNode(op string, val token, get func(*StoredPacket) int64) (*node, error) {
	if val.kind != tokNumber {
		return nil, fmt.Errorf("numeric field compares against a number, got %q", val.text)
	}
	n, _ := strconv.ParseInt(val.text, 10, 64)
	pred, err := ordPredicate(op, get, n)
	if err != nil {
		return nil, err
	}
	return &node{kind: "cmp", pred: pred}, nil
}

// indexedNumericNode is numericNode for fields backed by a posting list;
// equality comparisons get an index descriptor (values outside the field's
// domain simply find an empty posting list, which is still exact).
func indexedNumericNode(kind ixKind, op string, val token, get func(*StoredPacket) int64) (*node, error) {
	n, err := numericNode(op, val, get)
	if err != nil {
		return nil, err
	}
	if op == "==" {
		v, _ := strconv.ParseUint(val.text, 10, 64)
		n.ix, n.ixVal = kind, v
	}
	return n, nil
}

func ordPredicate(op string, get func(*StoredPacket) int64, want int64) (Predicate, error) {
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
