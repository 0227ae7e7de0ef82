package dataplane

// Whole-ensemble compilation (Homunculus-style): instead of deploying only
// the extracted single tree, lower every member tree of an ml.Forest into
// its own integer-domain decision DAG and combine their leaf verdicts in a
// vote stage — mean leaf probabilities + argmax — reproducing the control
// plane model's arithmetic operation for operation so verdict classes and
// confidences are byte-identical to ml.Forest.Predict on the matchable
// schema.
//
// The compiler works under an explicit Tofino-ish ResourceBudget (pipeline
// stages, vote-table entries, DAG nodes, parallel tree pipelines). Over
// budget it degrades rather than fails: first every tree is depth-capped
// (pruned internal nodes become leaves voting their fitted class
// histogram), the cap shrinking until the ensemble fits; if no cap fits,
// it falls back to compiling the single extracted tree alone. What was
// used — and which rung of the ladder produced it — is reported in
// EnsembleUsage and exported as obs gauges at load time.
//
// Each compiled program carries two evaluators over the same vote tables:
// the integer fast path (thresholds floored onto the uint32 field domain,
// structurally-identical subtrees and identical leaves deduplicated per
// tree) and a float reference walk of the original thresholds, selected by
// the same scan-path knob that covers the rule DAG (setScanOnly).
//
// In front of the integer walk sits the layout tree ensembles take on
// match-action hardware: per-field range tables turn header values into a
// short code word (code), and the switch's batch entry points look the code
// word up in a small exact-match memo (ensMemo) before walking. The memo
// only ever holds what the walk returned, for one batch, on the caller's
// stack; the reference walk bypasses it.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"campuslab/internal/ml"
)

// maxEnsembleClasses bounds the vote stage's per-class accumulator, which
// lives on the eval stack so the hot path stays allocation-free.
const maxEnsembleClasses = 8

// ResourceBudget is the hardware envelope an ensemble must compile into —
// the Tofino-ish constraints the paper assumes for in-network ML. A field
// <= 0 means unconstrained.
type ResourceBudget struct {
	// Stages bounds pipeline depth: the deepest per-tree DAG plus one
	// vote stage.
	Stages int
	// TableEntries bounds the vote tables: one entry per distinct leaf
	// verdict across all trees.
	TableEntries int
	// Nodes bounds total decision-DAG nodes across all trees.
	Nodes int
	// Trees bounds the parallel per-tree pipelines.
	Trees int
}

// defaultEnsembleBudget returns a Tofino-flavoured envelope: 12 stages,
// 4096 vote entries, 8192 DAG nodes, 32 parallel tree pipelines.
func defaultEnsembleBudget() ResourceBudget {
	return ResourceBudget{Stages: 12, TableEntries: 4096, Nodes: 8192, Trees: 32}
}

// normalized maps unconstrained (<=0) fields to MaxInt so fit checks are
// plain comparisons.
func (b ResourceBudget) normalized() ResourceBudget {
	if b.Stages <= 0 {
		b.Stages = math.MaxInt
	}
	if b.TableEntries <= 0 {
		b.TableEntries = math.MaxInt
	}
	if b.Nodes <= 0 {
		b.Nodes = math.MaxInt
	}
	if b.Trees <= 0 {
		b.Trees = math.MaxInt
	}
	return b
}

// admits reports whether usage fits the (normalized) budget.
func (b ResourceBudget) admits(u EnsembleUsage) bool {
	return u.Trees <= b.Trees && u.Nodes <= b.Nodes &&
		u.TableEntries <= b.TableEntries && u.Stages <= b.Stages
}

// EnsembleMode is which rung of the degradation ladder produced the
// compiled program.
type EnsembleMode uint8

// Degradation ladder, best to worst.
const (
	// ensembleExact: the full ensemble fit; verdicts are byte-identical
	// to the control-plane model.
	ensembleExact EnsembleMode = iota
	// ensemblePruned: every tree was depth-capped to fit the budget.
	ensemblePruned
	// ensembleFallback: the ensemble could not fit at any depth cap; the
	// single fallback tree was compiled instead.
	ensembleFallback
)

// String returns the mode name.
func (m EnsembleMode) String() string {
	switch m {
	case ensembleExact:
		return "exact"
	case ensemblePruned:
		return "pruned"
	case ensembleFallback:
		return "fallback"
	default:
		return fmt.Sprintf("mode-%d", uint8(m))
	}
}

// EnsembleUsage reports what a compiled ensemble consumed of its budget.
type EnsembleUsage struct {
	Mode EnsembleMode
	// PrunedDepth is the applied depth cap (0 = uncapped).
	PrunedDepth int
	// Trees/Nodes/TableEntries/Stages are the consumed resources.
	Trees, Nodes, TableEntries, Stages int
	// TreeNodes is the per-tree compiled DAG node count.
	TreeNodes []int
	// Budget is the normalized envelope the compile was checked against.
	Budget ResourceBudget
}

// clone deep-copies the usage so callers never see live internals.
func (u EnsembleUsage) clone() EnsembleUsage {
	u.TreeNodes = append([]int(nil), u.TreeNodes...)
	return u
}

// EnsembleConfig controls ensemble-to-pipeline compilation. The action
// mapping mirrors CompileConfig: class 0 permits, DropClasses drop, other
// classes alert, and verdicts below MinConfidence punt to the control
// plane instead of acting inline.
type EnsembleConfig struct {
	// Name labels the program.
	Name string
	// DropClasses lists model classes compiled to ActionDrop.
	DropClasses []int
	// MinConfidence converts low-confidence attack verdicts to ActionPunt.
	MinConfidence float64
	// Budget is the hardware envelope (zero value = defaultEnsembleBudget).
	Budget ResourceBudget
	// Fallback is the extracted single tree compiled when the ensemble
	// cannot fit at any depth cap. Nil falls back to the ensemble's first
	// member tree.
	Fallback *ml.Tree
}

// ensNode is one compiled integer-domain split: val <= cut goes left.
// Child targets >= 0 are node indices; < 0 encode ^leafRow.
type ensNode struct {
	field       Field
	cut         uint32
	left, right int32
}

// refNode is the float reference twin: the original threshold on the
// original schema column, same ^leafRow leaf encoding into the same vote
// tables.
type refNode struct {
	feature     int32
	thr         float64
	left, right int32
}

// EnsembleProgram is a compiled ensemble pipeline: per-tree DAGs over an
// immutable shared arena plus the vote tables. Values are immutable after
// compilation; the switch publishes them RCU-style like rule programs.
type EnsembleProgram struct {
	Name    string
	classes int

	roots []int32 // per-tree compiled entry: node index or ^leafRow
	nodes []ensNode

	// ranges is the range-match stage in front of the trees: per tested
	// field, its sorted distinct cuts and where the field's rank sits in
	// the code word. When the ranks need more than 64 bits there is no
	// range stage (coded is false) and the walk alone serves the program.
	ranges []fieldRange
	coded  bool

	refRoots []int32
	refNodes []refNode
	fields   []Field // schema column -> field, for the reference walk

	// Vote table: each row is a classes-wide probability vector.
	leafProba []float64

	dropClass []bool
	minConf   float64
	usage     EnsembleUsage
}

// Usage returns a copy of the compiled program's resource report.
func (ep *EnsembleProgram) Usage() EnsembleUsage { return ep.usage.clone() }

// CompileForestEnsemble lowers a bagged forest into per-tree DAGs plus a
// mean-probability vote stage. Verdict classes and confidences are
// byte-identical to f.Predict/f.Proba on the matchable schema whenever the
// budget admits the exact ensemble; over budget it degrades (prune, then
// fall back to cfg.Fallback) instead of failing.
func CompileForestEnsemble(f *ml.Forest, schema []string, cfg EnsembleConfig) (*EnsembleProgram, error) {
	trees := make([]*ml.Tree, f.NumTrees())
	for t := range trees {
		trees[t] = f.Tree(t)
	}
	return compileEnsemble(trees, f.NumClasses(), schema, cfg)
}

// compileEnsemble runs the degradation ladder: exact, then depth caps
// descending from one below the deepest tree, then the single fallback
// tree (itself capped if necessary).
func compileEnsemble(trees []*ml.Tree, classes int, schema []string, cfg EnsembleConfig) (*EnsembleProgram, error) {
	if classes < 2 || classes > maxEnsembleClasses {
		return nil, fmt.Errorf("dataplane: ensemble with %d classes outside [2,%d]", classes, maxEnsembleClasses)
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("dataplane: empty ensemble")
	}
	fields := make([]Field, len(schema))
	for i, name := range schema {
		f, err := fieldByName(name)
		if err != nil {
			return nil, fmt.Errorf("dataplane: schema column %d: %w", i, err)
		}
		fields[i] = f
	}
	budget := cfg.Budget
	if budget == (ResourceBudget{}) {
		budget = defaultEnsembleBudget()
	}
	budget = budget.normalized()

	exported := make([][]ml.ExportedNode, len(trees))
	maxDepth := 0
	for t, tr := range trees {
		exported[t] = tr.Export()
		if d := tr.Depth(); d > maxDepth {
			maxDepth = d
		}
	}

	build := func(exp [][]ml.ExportedNode, cap int, mode EnsembleMode) (*EnsembleProgram, error) {
		ep, err := lowerEnsemble(exp, classes, fields, cfg, cap)
		if err != nil {
			return nil, err
		}
		ep.usage.Mode = mode
		ep.usage.PrunedDepth = cap
		ep.usage.Budget = budget
		return ep, nil
	}

	if len(trees) <= budget.Trees {
		// Rung 1: exact, then descending depth caps.
		for cap := 0; ; cap++ {
			d := 0 // 0 = uncapped
			if cap > 0 {
				d = maxDepth - cap
				if d < 1 {
					break
				}
			}
			mode := ensembleExact
			if cap > 0 {
				mode = ensemblePruned
			}
			ep, err := build(exported, d, mode)
			if err != nil {
				return nil, err
			}
			if budget.admits(ep.usage) {
				return ep, nil
			}
		}
	}

	// Rung 2: the single fallback tree, compiled as a one-tree mean-vote
	// ensemble (for one tree that is exactly Tree.Predict), capped if even
	// it is too deep or too wide.
	fb := cfg.Fallback
	if fb == nil {
		fb = trees[0]
	}
	fbExp := [][]ml.ExportedNode{fb.Export()}
	for cap := 0; ; cap++ {
		d := 0
		if cap > 0 {
			d = fb.Depth() - cap
			if d < 1 {
				return nil, fmt.Errorf("dataplane: budget %+v cannot hold even a depth-1 tree", cfg.Budget)
			}
		}
		ep, err := lowerEnsemble(fbExp, classes, fields, cfg, d)
		if err != nil {
			return nil, err
		}
		ep.usage.Mode = ensembleFallback
		ep.usage.PrunedDepth = d
		ep.usage.Budget = budget
		if budget.admits(ep.usage) {
			return ep, nil
		}
	}
}

// treeLowering carries one tree's compilation state: per-tree memo tables
// (each tree is its own physical pipeline, so sharing across trees would
// not save hardware) and the depth bookkeeping for the stage model.
type treeLowering struct {
	ep       *EnsembleProgram
	exp      []ml.ExportedNode
	cap      int // depth cap; 0 = none
	nodeMemo map[ensNode]int32
	leafMemo map[string]int32
	depth    int // deepest internal-node level reached (1-based)
}

// lowerEnsemble compiles every exported tree into the shared arenas.
func lowerEnsemble(exported [][]ml.ExportedNode, classes int, fields []Field, cfg EnsembleConfig, cap int) (*EnsembleProgram, error) {
	drop := make([]bool, classes)
	for _, c := range cfg.DropClasses {
		if c >= 0 && c < classes {
			drop[c] = true
		}
	}
	ep := &EnsembleProgram{
		Name:      cfg.Name,
		classes:   classes,
		fields:    fields,
		dropClass: drop,
		minConf:   cfg.MinConfidence,
	}
	ep.usage.Trees = len(exported)
	ep.usage.TreeNodes = make([]int, len(exported))
	maxDepth := 0
	for t, exp := range exported {
		lw := &treeLowering{
			ep: ep, exp: exp, cap: cap,
			nodeMemo: make(map[ensNode]int32),
			leafMemo: make(map[string]int32),
		}
		nodesBefore := len(ep.nodes)
		ci, ri, err := lw.lower(0, 0)
		if err != nil {
			return nil, fmt.Errorf("dataplane: tree %d: %w", t, err)
		}
		ep.roots = append(ep.roots, ci)
		ep.refRoots = append(ep.refRoots, ri)
		ep.usage.TreeNodes[t] = len(ep.nodes) - nodesBefore
		if lw.depth > maxDepth {
			maxDepth = lw.depth
		}
	}
	ep.usage.Nodes = len(ep.nodes)
	ep.collectRanges()
	ep.usage.TableEntries = len(ep.leafProba) / classes
	ep.usage.Stages = maxDepth + 1 // per-tree match levels + the vote stage
	return ep, nil
}

// lower compiles the subtree at exported index i, returning the compiled
// and reference entries (node index or ^leafRow). depth is the level of
// node i (root = 0).
func (lw *treeLowering) lower(i, depth int) (int32, int32, error) {
	ep := lw.ep
	n := &lw.exp[i]
	if n.Feature < 0 || (lw.cap > 0 && depth >= lw.cap) {
		row, err := lw.leafRow(n)
		if err != nil {
			return 0, 0, err
		}
		return ^row, ^row, nil
	}
	if n.Feature >= len(ep.fields) {
		return 0, 0, fmt.Errorf("split on feature %d outside schema (%d columns)", n.Feature, len(ep.fields))
	}
	li, lr, err := lw.lower(n.Left, depth+1)
	if err != nil {
		return 0, 0, err
	}
	ri, rr, err := lw.lower(n.Right, depth+1)
	if err != nil {
		return 0, 0, err
	}
	if depth+1 > lw.depth {
		lw.depth = depth + 1
	}
	refIdx := int32(len(ep.refNodes))
	ep.refNodes = append(ep.refNodes, refNode{
		feature: int32(n.Feature), thr: n.Threshold, left: lr, right: rr,
	})

	// Integerize the threshold onto the uint32 field domain: for integer
	// v, v <= thr iff v <= floor(thr). Thresholds outside the domain make
	// the split constant and the node disappears from the fast path.
	var ci int32
	switch {
	case n.Threshold < 0:
		ci = ri // no uint32 is <= a negative threshold
	case n.Threshold >= math.MaxUint32:
		ci = li // every uint32 satisfies it
	case li == ri:
		ci = li // both branches agree: the test is dead
	default:
		node := ensNode{
			field: ep.fields[n.Feature],
			cut:   uint32(math.Floor(n.Threshold)),
			left:  li, right: ri,
		}
		if idx, ok := lw.nodeMemo[node]; ok {
			ci = idx
		} else {
			ci = int32(len(ep.nodes))
			ep.nodes = append(ep.nodes, node)
			lw.nodeMemo[node] = ci
		}
	}
	return ci, refIdx, nil
}

// leafRow interns the vote-table row for a (possibly pruned-internal) node:
// the exact probability vector Tree.Proba computes. Identical rows within a
// tree share one table entry.
func (lw *treeLowering) leafRow(n *ml.ExportedNode) (int32, error) {
	ep := lw.ep
	if len(n.Counts) != ep.classes {
		return 0, fmt.Errorf("leaf histogram has %d classes, ensemble has %d", len(n.Counts), ep.classes)
	}
	// Tree.Proba's counts/total division, precomputed once.
	proba := make([]float64, ep.classes)
	if n.Total > 0 {
		for c, v := range n.Counts {
			proba[c] = v / n.Total
		}
	}
	var key []byte
	for _, p := range proba {
		bits := math.Float64bits(p)
		key = append(key, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	if row, ok := lw.leafMemo[string(key)]; ok {
		return row, nil
	}
	row := int32(len(ep.leafProba) / ep.classes)
	ep.leafProba = append(ep.leafProba, proba...)
	lw.leafMemo[string(key)] = row
	return row, nil
}

// fieldRange is one field's range table: v ranks r among cuts when exactly
// r of them are < v, and the rank occupies the code word from bit shift up.
//
// rank is the table the code stage reads instead of searching cuts: bucket
// k holds the values [k<<bucket, (k+1)<<bucket), bucket being the field's
// width less eight, so 256 buckets span the field's domain; entry 256
// stands for every value past them and entry 257 closes the cut list. The
// table lives inline, so a compile allocates nothing for it.
type fieldRange struct {
	field  Field
	shift  uint8
	bucket uint8
	cuts   []uint32 // sorted, distinct
	rank   [rankBuckets + 2]rankEntry
}

const rankBuckets = 256

// rankEntry is one bucket of a range table. A value v of the bucket ranks
// rank>>1 + (v > cut): cut is the one cut inside the bucket that values
// above it pass, or the bucket's last value when there is none. Bit 0 of
// rank marks a bucket that holds more cuts than that (and entry 256): its
// cut is MaxUint32, and its values search cuts[rank>>1 : next entry's
// rank>>1].
type rankEntry struct {
	rank, cut uint32
}

// fill builds r.rank from r.cuts.
func (r *fieldRange) fill() {
	below := func(v uint32) uint32 { // how many cuts are < v
		n, _ := slices.BinarySearch(r.cuts, v)
		return uint32(n)
	}
	for k := range r.rank {
		e := &r.rank[k]
		if k > rankBuckets {
			e.rank = uint32(len(r.cuts)) << 1
			continue
		}
		first := uint32(k) << r.bucket
		last := first + 1<<r.bucket - 1
		lo := below(first)
		e.rank, e.cut = lo<<1, last
		// Cuts in [first, last) split the bucket; one at last does not.
		switch n := below(last) - lo; {
		case k == rankBuckets || n > 1:
			e.rank, e.cut = lo<<1|1, math.MaxUint32
		case n == 1:
			e.cut = r.cuts[lo]
		}
	}
}

// collectRanges derives the range tables from the compiled nodes. Constant
// and dead splits never became nodes, so they contribute no cut.
func (ep *EnsembleProgram) collectRanges() {
	var byField [numFields][]uint32
	for i := range ep.nodes {
		n := &ep.nodes[i]
		byField[n.field] = append(byField[n.field], n.cut)
	}
	width, tested := 0, 0
	for f, cuts := range byField {
		if len(cuts) == 0 {
			continue
		}
		slices.Sort(cuts)
		byField[f] = slices.Compact(cuts)
		width += bits.Len(uint(len(byField[f]))) // ranks run 0..len
		tested++
	}
	if width > 64 {
		return
	}
	ep.ranges = make([]fieldRange, 0, tested)
	width = 0
	for f, cuts := range byField {
		if len(cuts) == 0 {
			continue
		}
		ep.ranges = append(ep.ranges, fieldRange{})
		r := &ep.ranges[len(ep.ranges)-1]
		r.field, r.shift, r.cuts = Field(f), uint8(width), cuts
		r.bucket = uint8(max(fieldWidths[f]-8, 0))
		r.fill()
		width += bits.Len(uint(len(cuts)))
	}
	ep.coded = true
}

// code maps a field vector to its code word: per tested field, the rank of
// the value among that field's cuts. A node sends v left iff v <= cut, iff
// the cut's index is >= v's rank — so two vectors with equal code words
// take the same branch at every node of every tree, reach the same leaf
// rows, and accumulate the same float64s in the same order: their verdicts
// are bit-identical. Pure; only called when ep.coded.
//
// The rank is one table read and one comparison unless v's bucket holds
// two or more cuts (or v lies past the table); only then does it search,
// and only the cuts that can still be below v.
func (ep *EnsembleProgram) code(fv *fieldVector) uint64 {
	var w uint64
	for i := range ep.ranges {
		r := &ep.ranges[i]
		v := fv.vals[r.field]
		// The masks only let the compiler drop its shift-range checks.
		k := min(v>>(r.bucket&31), rankBuckets)
		e := r.rank[k]
		rank := int(e.rank>>1) + less(e.cut, v)
		if e.rank&1 != 0 {
			// Lower bound by halving over the bucket's cuts. Header values
			// are as good as random to a branch predictor (and a miss here
			// also costs the walk behind it), so each step is arithmetic,
			// not a branch.
			if n := int(r.rank[k+1].rank>>1) - rank; n > 0 {
				for n > 1 {
					half := n >> 1
					rank += half & -less(r.cuts[rank+half-1], v)
					n -= half
				}
				rank += less(r.cuts[rank], v)
			}
		}
		w |= uint64(rank) << (r.shift & 63)
	}
	return w
}

// less is 1 when a < b and 0 otherwise, computed without a branch.
func less(a, b uint32) int { return int((uint64(a) - uint64(b)) >> 63) }

// ensMemoSlots sizes the per-batch memo: the held-out DNS-amp episode shows
// ~22 distinct code words per 256-packet batch, so 128 direct-mapped slots
// rarely collide, and 128 x 56 B stays under 8 KB of the caller's stack.
const (
	ensMemoBits  = 7
	ensMemoSlots = 1 << ensMemoBits
)

// ensMemo is the exact-match stage of one batch: code word -> verdict,
// direct-mapped, living on the batch entry point's stack and dying with it.
// Nothing is shared between batches or goroutines.
type ensMemo struct {
	slots [ensMemoSlots]struct {
		code uint64
		ok   bool
		v    Verdict
	}
	hits, misses uint64
	// bypassed counts the packets the batch classified without the memo
	// after the memo failed its probe (see memoProbe).
	bypassed uint64
}

// slot spreads code words (small packed ranks) over the memo by a
// multiplicative hash.
func (m *ensMemo) slot(code uint64) int {
	return int(code * 0x9E3779B97F4A7C15 >> (64 - ensMemoBits))
}

// evalCompiled is the ensemble fast path: walk every per-tree integer DAG,
// combine in the vote stage, map the winning class to an action. It never
// allocates; the accumulator lives on the stack.
func (ep *EnsembleProgram) evalCompiled(fv *fieldVector) Verdict {
	var acc [maxEnsembleClasses]float64
	for _, root := range ep.roots {
		t := root
		for t >= 0 {
			n := &ep.nodes[t]
			if fv.vals[n.field] <= n.cut {
				t = n.left
			} else {
				t = n.right
			}
		}
		row := int(^t) * ep.classes
		for c := 0; c < ep.classes; c++ {
			acc[c] += ep.leafProba[row+c]
		}
	}
	return ep.vote(&acc, float64(len(ep.roots)))
}

// evalRef is the reference twin: the float walk of the original (possibly
// depth-capped) trees feeding the same vote tables — what the compiled
// path is property-tested against, reachable via the scan-path knob.
func (ep *EnsembleProgram) evalRef(fv *fieldVector) Verdict {
	var acc [maxEnsembleClasses]float64
	for _, root := range ep.refRoots {
		t := root
		for t >= 0 {
			n := &ep.refNodes[t]
			if float64(fv.vals[ep.fields[n.feature]]) <= n.thr {
				t = n.left
			} else {
				t = n.right
			}
		}
		row := int(^t) * ep.classes
		for c := 0; c < ep.classes; c++ {
			acc[c] += ep.leafProba[row+c]
		}
	}
	return ep.vote(&acc, float64(len(ep.refRoots)))
}

// vote normalizes the accumulated scores and maps the argmax class to a
// verdict. The argmax replicates ml's "first strictly greater wins", and
// the per-class division happens before the comparison exactly as
// Forest.Proba divides before Predict's scan — confidences are
// the same float64s the control-plane model reports.
func (ep *EnsembleProgram) vote(acc *[maxEnsembleClasses]float64, norm float64) Verdict {
	best, bestV := 0, math.Inf(-1)
	for c := 0; c < ep.classes; c++ {
		v := acc[c] / norm
		if v > bestV {
			best, bestV = c, v
		}
	}
	if best == 0 {
		// Benign is the pipeline default, as with compiled rule programs.
		return Verdict{Action: ActionPermit, RuleIndex: -1, Confidence: bestV}
	}
	action := ActionAlert
	if ep.dropClass[best] {
		action = ActionDrop
	}
	if bestV < ep.minConf {
		action = ActionPunt
	}
	return Verdict{Action: action, Class: best, Confidence: bestV, RuleIndex: -1}
}

// ensembleState is the published form inside pipelineState: the immutable
// program plus which evaluator the scan knob selected.
type ensembleState struct {
	ep   *EnsembleProgram
	scan bool
}

// memoizes reports whether a batch through this stage is worth a memo: an
// ensemble is installed, on the compiled path, with a range stage. The
// batch entry points ask before they spend stack (and its zeroing) on one.
func (es *ensembleState) memoizes() bool {
	return es != nil && !es.scan && es.ep.coded
}

// eval dispatches one field vector to the selected evaluator. A batch
// entry point passes its memo (nil: none, walk every packet): an equal code
// word seen earlier in the batch answers without a walk; a miss or a slot
// collision walks and overwrites the slot. The reference walk never
// consults it, so it stays an independent oracle.
func (es *ensembleState) eval(fv *fieldVector, m *ensMemo) Verdict {
	if es.scan {
		return es.ep.evalRef(fv)
	}
	if m == nil {
		return es.ep.evalCompiled(fv)
	}
	code := es.ep.code(fv)
	s := &m.slots[m.slot(code)]
	if s.ok && s.code == code {
		m.hits++
		return s.v
	}
	m.misses++
	v := es.ep.evalCompiled(fv)
	s.code, s.ok, s.v = code, true, v
	return v
}
