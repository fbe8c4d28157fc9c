package power

// A Program is a report tree compiled into flat rows, once for every
// chip and score buffer. Its shape (the nodes, their names and order,
// and each node's children) is fixed by the configuration, and so are
// the TDP columns: no model computes Area, PeakDynamic, SubLeak or
// GateLeak from runtime statistics, so compiling sums them once. A score
// then writes only the runtime inputs (each leaf's runtime dynamic
// power, and a power-gated node's LeakSaved) and rolls RuntimeDynamic
// and LeakSaved up the rows into a caller-owned []float64 slab. Item
// trees are built from a score only for callers that need one
// (Score.Tree). A Builder walk both compiles a Program and writes its
// score inputs.
//
// Rows are in pre-order: a node's subtree is the contiguous range
// [r, End), its first child is row r+1 and each next child starts at the
// End of the one before. A score runs the rows last to first, a
// post-order pass in which every node sums its children from zero, in
// child order, after they have rolled up.
type Program struct {
	Rows []Row
	// Names holds each row's name. It is kept apart from the rows, which
	// hold no pointers, so a chip's rows cost the garbage collector
	// nothing to scan.
	Names []string
	// Inputs is the number of values a score supplies, one per row whose
	// In is not -1, in In order.
	Inputs int
}

// Row is one node of a Program.
type Row struct {
	// The TDP columns at the nominal operating point: a leaf's own
	// values, an interior node's rollup of its children, after the
	// node's compile-time steps (Scale, and whatever area overhead the
	// compiler multiplies in).
	Area, PeakDynamic, SubLeak, GateLeak float64
	// Scale multiplies every column of the row's subtree after the row
	// rolls up, replicating a modeled-once block (1: none).
	Scale float64
	// End is one past the last row of the node's subtree.
	End int32
	// In is the index of the row's score input, or -1. A leaf's input
	// is its runtime dynamic power (a leaf without one has none). An
	// interior node's input is its LeakSaved, which replaces the rollup
	// of its children's.
	In int32
}

// SlabLen is the length of the slab a score of p needs: the runtime
// dynamic power and LeakSaved of every row, then the inputs.
func (p *Program) SlabLen() int { return 2*len(p.Rows) + p.Inputs }

// InputBuf returns the input region of slab (at least SlabLen long) as an
// empty slice with room for exactly p.Inputs values: a score appends its
// inputs there, in In order, before Run.
func (p *Program) InputBuf(slab []float64) []float64 {
	n := 2 * len(p.Rows)
	return slab[n:n:p.SlabLen()]
}

// Run rolls the inputs in slab up the rows and returns the score. leak
// and dyn are the operating-point factors: when either is not 1, every
// row's SubLeak and LeakSaved scale by leak and its RuntimeDynamic by
// dyn after the whole rollup, so a parent keeps the scaled sum of its
// unscaled children, the order every report bit is pinned to.
func (p *Program) Run(slab []float64, leak, dyn float64) Score {
	rows := p.Rows
	cols := slab[:2*len(rows)]
	in := slab[len(cols):p.SlabLen()]
	for r := len(rows) - 1; r >= 0; r-- {
		row := &rows[r]
		end := int(row.End)
		var rd, ls float64
		if end == r+1 {
			if row.In >= 0 {
				rd = in[row.In]
			}
		} else {
			for c := r + 1; c < end; c = int(rows[c].End) {
				rd += cols[2*c]
				ls += cols[2*c+1]
			}
			if row.In >= 0 {
				ls = in[row.In]
			}
		}
		cols[2*r], cols[2*r+1] = rd, ls
		if k := row.Scale; k != 1 {
			for i := 2 * r; i < 2*end; i++ {
				cols[i] *= k
			}
		}
	}
	if leak != 1 || dyn != 1 {
		for i := 0; i < len(cols); i += 2 {
			cols[i] *= dyn
			cols[i+1] *= leak
		}
	}
	return Score{Rows: rows, names: p.Names, cols: cols, leak: leak}
}

// Score is one scored Program: its rows and the runtime columns a score
// wrote. It aliases the program and the slab it was scored into, so it
// is valid until the next score into that slab. The accessors return
// each row's values as the report node of the same row carries them.
type Score struct {
	Rows  []Row
	names []string
	cols  []float64 // RuntimeDynamic and LeakSaved, interleaved by row
	leak  float64   // SubLeak factor of the operating point
}

// Len returns the number of rows.
func (s *Score) Len() int { return len(s.Rows) }

// End returns one past the last row of row r's subtree; the children of
// r are r+1, End(r+1), ... up to End(r).
func (s *Score) End(r int) int { return int(s.Rows[r].End) }

// Name returns the name of row r.
func (s *Score) Name(r int) string { return s.names[r] }

// Area returns the area of row r (m^2).
func (s *Score) Area(r int) float64 { return s.Rows[r].Area }

// PeakDynamic returns the peak dynamic power of row r (W).
func (s *Score) PeakDynamic(r int) float64 { return s.Rows[r].PeakDynamic }

// RuntimeDynamic returns the runtime dynamic power of row r (W).
func (s *Score) RuntimeDynamic(r int) float64 { return s.cols[2*r] }

// LeakSaved returns the power-gating saving of row r (W).
func (s *Score) LeakSaved(r int) float64 { return s.cols[2*r+1] }

// SubLeak returns the subthreshold leakage of row r at the score's
// operating point (W).
func (s *Score) SubLeak(r int) float64 {
	v := s.Rows[r].SubLeak
	if s.leak != 1 {
		v *= s.leak
	}
	return v
}

// GateLeak returns the gate leakage of row r (W).
func (s *Score) GateLeak(r int) float64 { return s.Rows[r].GateLeak }

// Leakage returns the total leakage of row r (W), as Item.Leakage.
func (s *Score) Leakage(r int) float64 { return s.SubLeak(r) + s.GateLeak(r) }

// Peak returns the peak total power of row r (W), as Item.Peak.
func (s *Score) Peak(r int) float64 { return s.PeakDynamic(r) + s.Leakage(r) }

// Runtime returns the runtime total power of row r net of power-gating
// savings (W), as Item.Runtime.
func (s *Score) Runtime(r int) float64 {
	return s.RuntimeDynamic(r) + s.Leakage(r) - s.LeakSaved(r)
}

// Values returns the six quantities of row r in the order Area,
// PeakDynamic, RuntimeDynamic, SubLeak, GateLeak, LeakSaved.
func (s *Score) Values(r int) [6]float64 {
	row := &s.Rows[r]
	return [6]float64{row.Area, row.PeakDynamic, s.cols[2*r], s.SubLeak(r), row.GateLeak, s.cols[2*r+1]}
}

// Tree builds the report tree of the score: one Item per row, in two
// allocations. The tree is the caller's; it does not alias the slab.
func (s *Score) Tree() *Item {
	items := make([]Item, len(s.Rows))
	kids := make([]*Item, len(s.Rows)-1)
	k := 0
	for r := range s.Rows {
		v := s.Values(r)
		it := &items[r]
		*it = Item{Name: s.names[r], Area: v[0], PeakDynamic: v[1], RuntimeDynamic: v[2],
			SubLeak: v[3], GateLeak: v[4], LeakSaved: v[5]}
		if end := s.End(r); end > r+1 {
			lo := k
			for c := r + 1; c < end; c = s.End(c) {
				kids[k] = &items[c]
				k++
			}
			it.Children = kids[lo:k:k]
		}
	}
	return &items[0]
}

// Flatten lays the tree out as the rows of a Score, appending to rows,
// names and cols (pass stack buffers to keep the layout off the heap),
// so a tree and a scored Program are checked by one pass. The tree's
// values are taken as they are: the Score's operating point is nominal.
func Flatten(it *Item, rows []Row, names []string, cols []float64) Score {
	rows, names, cols = flatten(it, rows[:0], names[:0], cols[:0])
	return Score{Rows: rows, names: names, cols: cols, leak: 1}
}

func flatten(it *Item, rows []Row, names []string, cols []float64) ([]Row, []string, []float64) {
	r := len(rows)
	rows = append(rows, Row{Area: it.Area, PeakDynamic: it.PeakDynamic,
		SubLeak: it.SubLeak, GateLeak: it.GateLeak, Scale: 1, In: -1})
	names = append(names, it.Name)
	cols = append(cols, it.RuntimeDynamic, it.LeakSaved)
	for _, c := range it.Children {
		rows, names, cols = flatten(c, rows, names, cols)
	}
	rows[r].End = int32(len(rows))
	return rows, names, cols
}

// Builder walks a report tree in pre-order: Open and Close bracket an
// interior node, Leaf adds a leaf with its dynamic power under the
// activity the walk is run at. A Builder has one of two modes, fixed by
// its constructor, so that one walk per part both compiles the report and
// scores it:
//
//   - NewBuilder compiles: every node becomes a row, a leaf's dynamic
//     power is its TDP column (the walk runs at peak activity), and Close
//     rolls the TDP columns of a node's children up in child order.
//   - NewScoreBuilder scores: it keeps only the score inputs, each leaf's
//     dynamic power and each LeakSaved, in the order compiling numbers
//     them; the other steps do nothing.
type Builder struct {
	scoring bool
	in      []float64 // the inputs of a scoring Builder

	rows   []Row
	names  []string
	open   [maxDepth]int32
	depth  int
	inputs int32
}

// maxDepth bounds how deep Open calls nest.
const maxDepth = 16

// NewBuilder returns a Builder that compiles into dst's storage, so a
// program compiled over and over into one Program allocates nothing once
// it has grown; the rows dst held are overwritten. A nil or empty dst
// starts with room for a whole chip report.
func NewBuilder(dst *Program) Builder {
	if dst == nil || cap(dst.Rows) == 0 {
		// A chip with every optional part and a fully featured
		// out-of-order core has 63 rows.
		return Builder{rows: make([]Row, 0, 64), names: make([]string, 0, 64)}
	}
	return Builder{rows: dst.Rows[:0], names: dst.Names[:0]}
}

// NewScoreBuilder returns a Builder that appends a walk's score inputs
// to in (a Program's InputBuf) and compiles nothing.
func NewScoreBuilder(in []float64) Builder { return Builder{scoring: true, in: in} }

// Scoring reports whether b scores rather than compiles: the check for
// a walk whose runtime formula differs from its TDP one by design.
func (b *Builder) Scoring() bool { return b.scoring }

// Inputs returns the inputs a scoring Builder has appended.
func (b *Builder) Inputs() []float64 { return b.in }

// Open starts an interior node.
func (b *Builder) Open(name string) {
	if b.scoring {
		return
	}
	if b.depth == maxDepth {
		panic("power: report tree deeper than maxDepth")
	}
	b.open[b.depth] = int32(len(b.rows))
	b.depth++
	b.add(name, Row{Scale: 1, In: -1})
}

// Close ends the innermost open node, rolls its TDP columns up from its
// children and returns its row (-1 when scoring).
func (b *Builder) Close() int {
	if b.scoring {
		return -1
	}
	return b.close()
}

// Leaf adds a leaf for component model p whose dynamic power under the
// walk's activity is dyn, and returns its row (-1 when scoring). The
// leaf's area and leakage are p's; dyn is its TDP column when compiling
// and its score input when scoring.
func (b *Builder) Leaf(name string, p *PAT, dyn float64) int {
	if b.scoring {
		b.in = append(b.in, dyn)
		return -1
	}
	r := len(b.rows)
	b.add(name, Row{Area: p.Area, PeakDynamic: dyn, SubLeak: p.Static.Sub, GateLeak: p.Static.Gate,
		Scale: 1, End: int32(r + 1), In: b.next()})
	return r
}

// Fixed adds a leaf that has area only: no power and no score input.
func (b *Builder) Fixed(name string, area float64) {
	if !b.scoring {
		b.add(name, Row{Area: area, Scale: 1, End: int32(len(b.rows) + 1), In: -1})
	}
}

// LeakSaved makes saved the LeakSaved of closed interior row r, in place
// of its children's rollup: a score input, so compiling only reserves
// its slot.
func (b *Builder) LeakSaved(r int, saved float64) {
	if b.scoring {
		b.in = append(b.in, saved)
		return
	}
	b.rows[r].In = b.next()
}

// Scale multiplies the TDP columns of closed row r's subtree by k now,
// and its runtime columns by k in every score, after r rolls up: a
// modeled-once block replicated k times. A row is scaled at most once.
func (b *Builder) Scale(r int, k float64) {
	if b.scoring {
		return
	}
	if b.rows[r].Scale != 1 {
		panic("power: row scaled twice")
	}
	b.rows[r].Scale = k
	for i := r; i < int(b.rows[r].End); i++ {
		row := &b.rows[i]
		row.Area *= k
		row.PeakDynamic *= k
		row.SubLeak *= k
		row.GateLeak *= k
	}
}

// AreaOverhead multiplies the area of closed row r by k, after its
// rollup: a layout overhead on the node's children.
func (b *Builder) AreaOverhead(r int, k float64) {
	if !b.scoring {
		b.rows[r].Area *= k
	}
}

// Program returns the compiled program, in the storage the Builder
// compiled into. Every node must be closed.
func (b *Builder) Program() Program {
	if b.depth != 0 {
		panic("power: Program with open nodes")
	}
	return Program{Rows: b.rows, Names: b.names, Inputs: int(b.inputs)}
}

// close is Close when compiling, kept apart so that Close, which a
// scoring walk calls at every interior node, stays inlinable.
func (b *Builder) close() int {
	b.depth--
	r := int(b.open[b.depth])
	row := &b.rows[r]
	row.End = int32(len(b.rows))
	for c := r + 1; c < len(b.rows); c = int(b.rows[c].End) {
		k := &b.rows[c]
		row.Area += k.Area
		row.PeakDynamic += k.PeakDynamic
		row.SubLeak += k.SubLeak
		row.GateLeak += k.GateLeak
	}
	return r
}

func (b *Builder) add(name string, r Row) {
	b.rows = append(b.rows, r)
	b.names = append(b.names, name)
}

func (b *Builder) next() int32 {
	b.inputs++
	return b.inputs - 1
}
