package datastore

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"campuslab/internal/traffic"
)

// genExpr builds a random syntactically valid filter expression.
func genExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(3) == 0 {
		return genComparison(r)
	}
	switch r.Intn(4) {
	case 0:
		return genExpr(r, depth-1) + " && " + genExpr(r, depth-1)
	case 1:
		return genExpr(r, depth-1) + " || " + genExpr(r, depth-1)
	case 2:
		return "!(" + genExpr(r, depth-1) + ")"
	default:
		return "(" + genExpr(r, depth-1) + ")"
	}
}

var propFields = []string{"len", "ttl", "src.port", "dst.port", "payload.len", "dns.answers", "link"}
var propOps = []string{"==", "!=", "<", "<=", ">", ">="}
var propFlags = []string{"dns", "dns.resp", "tcp", "udp", "icmp", "ip", "tcp.syn", "tcp.ack", "tcp.fin", "tcp.rst"}

func genComparison(r *rand.Rand) string {
	switch r.Intn(5) {
	case 0:
		return propFlags[r.Intn(len(propFlags))]
	case 1:
		return "src.ip in 10.0.0.0/8"
	case 2:
		return "proto == udp"
	case 3:
		f := propFields[r.Intn(len(propFields))]
		op := propOps[r.Intn(len(propOps))]
		return f + " " + op + " " + itoa(r.Intn(70000))
	default:
		return "ts >= " + itoa(r.Intn(5)) + "s"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestFilterGrammarProperty(t *testing.T) {
	// Property 1: every grammar-generated expression parses; evaluation
	// never panics; De Morgan consistency: !(a) matches exactly the
	// complement of a.
	st := fillStore(t)
	r := rand.New(rand.NewSource(99))
	n := 300
	if raceEnabled { // one goroutine: the detector adds cost and nothing to check
		n = 100
	}
	for i := 0; i < n; i++ {
		expr := genExpr(r, 3)
		f, err := ParseFilter(expr)
		if err != nil {
			t.Fatalf("grammar expression rejected: %q: %v", expr, err)
		}
		neg, err := ParseFilter("!(" + expr + ")")
		if err != nil {
			t.Fatalf("negation rejected: %v", err)
		}
		pos, negN := 0, 0
		st.Scan(func(sp *StoredPacket) bool {
			if f.match(sp) {
				pos++
			}
			if neg.match(sp) {
				negN++
			}
			return true
		})
		if total := int(st.Stats().Packets); pos+negN != total {
			t.Fatalf("complement broken for %q: %d + %d != %d", expr, pos, negN, total)
		}
	}
}

func TestFilterGarbageNeverPanics(t *testing.T) {
	// Property 2: random byte soup either parses (and evaluates without
	// panicking) or errors — never panics.
	st := fillStore(t)
	r := rand.New(rand.NewSource(100))
	alphabet := "abcdefghijklmnop .!&|()<>=0123456789/sxtudnp_"
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(40)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		f, err := ParseFilter(sb.String())
		if err != nil {
			continue
		}
		st.Scan(func(sp *StoredPacket) bool {
			f.match(sp)
			return false // one packet is enough to exercise evaluation
		})
	}
}

func TestFilterIdempotentDoubleNegation(t *testing.T) {
	st := fillStore(t)
	for _, expr := range []string{"dns", "len > 500", "tcp.syn && !tcp.ack"} {
		a := MustFilter(expr)
		b := MustFilter("!(!(" + expr + "))")
		st.Scan(func(sp *StoredPacket) bool {
			if a.match(sp) != b.match(sp) {
				t.Fatalf("double negation differs for %q", expr)
			}
			return true
		})
	}
}

// genTSConjunct draws one `ts op v` comparison: any of the six operators
// against a stored timestamp, one nanosecond either side of one, or a
// negative value.
func genTSConjunct(r *rand.Rand, stored []time.Duration) string {
	v := stored[r.Intn(len(stored))] + time.Duration(r.Intn(3)-1)
	if r.Intn(12) == 0 {
		v = -time.Duration(1+r.Intn(5)) * time.Second
	}
	return fmt.Sprintf("ts %s %dns", propOps[r.Intn(len(propOps))], int64(v))
}

// genWindowExpr ANDs one to three ts conjuncts with, usually, something
// for the index and, sometimes, something for the residual — in random
// order, so the window is assembled from conjuncts anywhere in the chain.
func genWindowExpr(r *rand.Rand, stored []time.Duration) string {
	var parts []string
	for n := 1 + r.Intn(3); n > 0; n-- {
		parts = append(parts, genTSConjunct(r, stored))
	}
	if r.Intn(4) > 0 {
		parts = append(parts, []string{"proto == udp", "udp", "ip", "proto == tcp", "dst.port == 53", "label == dns-amp", "link == 0"}[r.Intn(7)])
	}
	if r.Intn(3) == 0 {
		parts = append(parts, []string{"len > 100", "ttl <= 64", "!(dns)", "(tcp.syn || udp)"}[r.Intn(4)])
	}
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, " && ")
}

// windowEdgeExprs are the shapes the exact window has to get right by
// construction rather than by luck of the draw.
var windowEdgeExprs = []string{
	"ts >= 3s && ts == 1s",                 // == must not widen an earlier bound
	"ts == 1s && ts >= 3s && udp",          // in either order
	"ts < -5s",                             // a negative bound is a bound
	"ts > -5s && udp",                      //
	"ts >= 0 && ts < 0 && ip",              // empty window
	"ts <= 9223372036854775807ns && udp",   // inclusive bound with no exclusive successor
	"ts > 9223372036854775807ns && udp",    //
	"ts == 9223372036854775807ns",          //
	"ts >= -9223372036854775808ns && ip",   //
	"ts != 1s && udp",                      // not an interval
	"ts > 1s && ts != 1500ms && ts <= 2s",  //
	"!(ts < 1s) && udp",                    // under a NOT: opaque to the planner
	"(ts < 1s || ts > 2s) && proto == udp", // under an OR: opaque to the planner
	"ts >= 1s && (ts < 2s && udp) && ip",   // nested ANDs flatten
}

// TestTimeWindowPropertyEquivalence: with ts conjuncts compiled into an
// exact window instead of being re-checked by a residual, the planner must
// still answer exactly what the serial scan answers — for Select at limits
// 0/1/7 and for Count, untiered and tiered, at shards 1 and 4 — and the
// four stores must agree with each other.
func TestTimeWindowPropertyEquivalence(t *testing.T) {
	// Millisecond timestamps: every boundary value is shared by a run of
	// packets, so off-by-one windows cannot hide.
	frames := append([]traffic.Frame(nil), tierFrames(t)...)
	for i := range frames {
		frames[i].TS = frames[i].TS.Truncate(time.Millisecond)
	}
	var stores []*Store
	var names []string
	shardCases := []int{1, 4}
	if raceEnabled { // the race gates cover concurrency; one shard count is the budget here
		shardCases = []int{4}
	}
	for _, shards := range shardCases {
		for _, tiered := range []bool{false, true} {
			s := NewSharded(shards)
			if tiered {
				pol := aggressiveTier(t.TempDir())
				pol.CacheBytes = 1 << 20
				if err := s.EnableTiering(pol); err != nil {
					t.Fatal(err)
				}
			}
			for lo := 0; lo < len(frames); lo += 500 {
				if _, err := s.AddBatch(frames[lo:min(lo+500, len(frames))], 1); err != nil {
					t.Fatal(err)
				}
			}
			if tiered {
				if ts := s.TierStats(); ts.ColdPackets == 0 || s.Stats().Packets == 0 {
					t.Fatalf("tiered store needs both tiers: %+v", ts)
				}
			}
			stores = append(stores, s)
			names = append(names, fmt.Sprintf("shards=%d/tiered=%v", shards, tiered))
		}
	}
	stored := storedTimes(stores[0])
	if len(stored)*2 > len(frames) {
		t.Fatalf("%d distinct timestamps in %d frames: boundaries are not shared", len(stored), len(frames))
	}

	exprs := append([]string(nil), windowEdgeExprs...)
	r := rand.New(rand.NewSource(1717))
	n := 120
	if testing.Short() || raceEnabled {
		n = 20
	}
	for i := 0; i < n; i++ {
		exprs = append(exprs, genWindowExpr(r, stored))
	}
	matched := 0
	for _, expr := range exprs {
		for _, limit := range []int{0, 1, 7} {
			var first []StoredPacket
			for si, s := range stores {
				got := selectBoth(t, s, expr, limit)
				if si == 0 {
					first = got
				} else if !reflect.DeepEqual(first, got) {
					t.Fatalf("Select(%q, %d): %s returned %d rows, %s %d", expr, limit, names[0], len(first), names[si], len(got))
				}
			}
			matched += len(first)
		}
	}
	if matched == 0 {
		t.Fatal("no generated window matched anything")
	}
	for _, s := range stores {
		if err := s.TierStats().Err; err != nil {
			t.Fatal(err)
		}
	}
}

// planWindowCases are the window shapes ts conjuncts compile into;
// TestRunContract walks every run over each of them.
var planWindowCases = []struct {
	expr     string
	win      tsWin
	residual bool
}{
	{"ts >= 1s && ts < 2s && udp", tsWin{from: time.Second, to: 2 * time.Second, hasFrom: true, hasTo: true}, false},
	{"ts > 1s && ts <= 2s && udp", tsWin{from: time.Second + 1, to: 2*time.Second + 1, hasFrom: true, hasTo: true}, false},
	{"ts == 1s && udp", tsWin{from: time.Second, to: time.Second + 1, hasFrom: true, hasTo: true}, false},
	{"ts >= 3s && ts == 1s && udp", tsWin{from: 3 * time.Second, to: time.Second + 1, hasFrom: true, hasTo: true}, false},
	{"ts < -5s && udp", tsWin{to: -5 * time.Second, hasTo: true}, false},
	{"ts >= 0 && udp", tsWin{hasFrom: true}, false},
	{"ts != 1s && udp", tsWin{}, true},
	{"ts <= 9223372036854775807ns && udp", tsWin{}, true},
	{"ts == 9223372036854775807ns && udp", tsWin{from: math.MaxInt64, hasFrom: true}, true},
	{"ts > 9223372036854775807ns && udp", tsWin{}, true},
	{"!(ts < 1s) && udp", tsWin{}, true},
	{"ts >= 1s && len > 5", tsWin{from: time.Second, hasFrom: true}, false}, // not indexable: no residual, Match re-checks
}

// TestPlanWindowExact pins how ts conjuncts compile: into one half-open
// interval, out of the residual.
func TestPlanWindowExact(t *testing.T) {
	for _, c := range planWindowCases {
		f := MustFilter(c.expr)
		if f.plan.win != c.win {
			t.Errorf("%q: window %+v, want %+v", c.expr, f.plan.win, c.win)
		}
		if (f.plan.residual != nil) != c.residual {
			t.Errorf("%q: residual = %v, want %v", c.expr, f.plan.residual != nil, c.residual)
		}
	}
}

// classifyWordProbes is the tokenizer's word classification without the
// identifier fast path: every probe runs on every word. It is the oracle
// the fast path must agree with.
func classifyWordProbes(w string) token {
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

// TestClassifyWordMatchesProbes: the identifier fast path classifies every
// word exactly as the full probe chain does, on a corpus of each kind and
// on seeded random words.
func TestClassifyWordMatchesProbes(t *testing.T) {
	corpus := []string{
		"", "in", "In", "inx", "_", "_x", "x", "ts", "proto", "udp", "dst.port", "dns.resp", "tcp.syn",
		"label", "dns-amp", "ANY", "Z9", "a:b", "fe80::1", "fe80::1%eth0", "::1", "::", "::ffff:10.0.0.1",
		"2001:db8::/32", "10.0.0.0/8", "10.0.0.1", "10.0.0.1/33", "a/8", "0", "53", "18446744073709551615",
		"18446744073709551616", "-1", "+1", "-1s", ".5s", "10us", "10µs", "1h2m3.5s", "0s", "1e3", "s1",
		"ns", "µs", "é", "ß10", "\xff", "x\x00",
	}
	for _, w := range corpus {
		if got, want := classifyWord(w), classifyWordProbes(w); got != want {
			t.Fatalf("classifyWord(%q) = %v, probes say %v", w, got, want)
		}
	}
	r := rand.New(rand.NewSource(32))
	alphabet := "abcfinsuhmxAFZ_0123456789.:/%-+µ"
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		w := sb.String()
		if got, want := classifyWord(w), classifyWordProbes(w); got != want {
			t.Fatalf("classifyWord(%q) = %v, probes say %v", w, got, want)
		}
	}
}

// TestParseFilterAllocs holds the parse of a windowed selective query —
// the shape most end-to-end benchmark queries take — under a ceiling. It
// measured 32 allocations, and 67 when every identifier ran the address,
// number and duration probes (each failed probe allocates an error).
func TestParseFilterAllocs(t *testing.T) {
	const expr, ceiling = "ts >= 1234567us && ts < 2345678us && proto == tcp && dst.port == 443", 38
	got := testing.AllocsPerRun(50, func() {
		if _, err := ParseFilter(expr); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("ParseFilter(%q) made %.0f allocations, ceiling %d", expr, got, ceiling)
	}
}
