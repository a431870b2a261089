package gf2

import (
	"math"
	"testing"

	"smallbandwidth/internal/prng"
)

// laneCounts tallies what a differential lane trial exercised.
type laneCounts struct {
	compared int // lane values compared with the scalar query
	mixed    int // queries whose lanes did not all agree
	zero     int // lane values that were exactly 0 with some sibling lane nonzero
}

// laneCoin returns a coin over b random forms on the bit positions in
// pool, with the threshold at 0, at 2^b or in between.
func laneCoin(tb testing.TB, src *prng.Source, pool []int) Coin {
	tb.Helper()
	b := 1 + src.Intn(4)
	forms := make([]Form, b)
	for i := range forms {
		for _, p := range pool {
			if src.Intn(3) == 0 {
				forms[i].Mask = forms[i].Mask.WithBit(p, true)
			}
		}
		forms[i].Const = src.Bool()
	}
	var num, den uint64
	switch src.Intn(5) {
	case 0:
		num, den = 0, 1+uint64(src.Intn(5)) // t = 0
	case 1:
		den = 1 + uint64(src.Intn(5))
		num = den // t = 2^b
	default:
		den = 1 + uint64(src.Intn(9))
		num = uint64(src.Intn(int(den) + 1))
	}
	c, err := NewCoinFromForms(forms, num, den)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// laneTrial builds one random base and segment and compares every lane
// of the three lane queries with the scalar query on base ∧ {segment =
// r}, by Float64bits. Segment widths run over 1..7, so a 7-bit segment
// is scored in two 64-lane chunks; the base fixes bits in both words
// and may carry a general row; forms draw bits from both words.
func laneTrial(tb testing.TB, src *prng.Source, lb *LaneBasis, cnt *laneCounts) {
	tb.Helper()
	segW := 1 + src.Intn(7)
	segStart := src.Intn(128 - segW + 1)
	if src.Intn(3) == 0 {
		segStart = 64 - segW + src.Intn(segW+1) // at or across the word boundary
	}
	seen := map[int]bool{}
	var seg, pool []int
	for t := 0; t < segW; t++ {
		seen[segStart+t] = true
		seg = append(seg, segStart+t)
	}
	for len(pool) < 4+src.Intn(8) {
		p := src.Intn(128)
		if src.Intn(2) == 0 {
			p = 56 + src.Intn(16) // keep both words busy near the boundary
		}
		if !seen[p] {
			seen[p] = true
			pool = append(pool, p)
		}
	}
	base := NewBasis()
	var free []int
	for _, p := range pool {
		if src.Intn(3) == 0 {
			base.FixBit(p, src.Bool())
		} else {
			free = append(free, p)
		}
	}
	if len(free) > 1 && src.Bool() {
		var fo Form
		for _, p := range free {
			if src.Bool() {
				fo.Mask = fo.Mask.WithBit(p, true)
			}
		}
		base.Add(fo, src.Bool())
	}
	if err := lb.Reset(base, segStart, segW); err != nil {
		tb.Fatal(err)
	}
	nAssign := 1 << segW
	bases := make([]*Basis, nAssign)
	for r := range bases {
		bases[r] = base.Clone()
		for t, p := range seg {
			if !bases[r].FixBit(p, r>>t&1 == 1) {
				tb.Fatalf("segment bit %d already fixed in the base", p)
			}
		}
	}
	all := append(append([]int(nil), pool...), seg...)

	// check compares one query's lane values with the scalar values of
	// every assignment; scalar(r) is the scalar query under bases[r].
	var got [2][64]float64
	check := func(name string, which int, run func(), scalar func(r int) float64) {
		want := make([]float64, nAssign)
		for r := range want {
			want[r] = scalar(r)
		}
		for c := 0; c < lb.Chunks(); c++ {
			lb.SetChunk(c)
			for k := range got[0] {
				got[0][k], got[1][k] = math.NaN(), math.NaN()
			}
			run()
			if len(lb.rows) != lb.baseRows || lb.depth != 0 {
				tb.Fatalf("%s: walk left %d rows (base %d) and depth %d", name, len(lb.rows), lb.baseRows, lb.depth)
			}
			for k := range got[which] {
				r := c<<6 | k
				if k >= lb.Lanes() {
					if !math.IsNaN(got[which][k]) {
						tb.Fatalf("%s: lane %d beyond Lanes() = %d was written", name, k, lb.Lanes())
					}
					continue
				}
				if math.Float64bits(got[which][k]) != math.Float64bits(want[r]) {
					tb.Fatalf("%s (segment [%d,%d), chunk %d): lane %d = %v, scalar %v",
						name, segStart, segStart+segW, c, k, got[which][k], want[r])
				}
				cnt.compared++
			}
		}
		mixed := false
		for r := range want {
			if want[r] != want[0] {
				mixed = true
			}
		}
		if mixed {
			cnt.mixed++
			for r := range want {
				if want[r] == 0 {
					cnt.zero++
				}
			}
		}
	}

	for q := 0; q < 3; q++ {
		c1, c2 := laneCoin(tb, src, all), laneCoin(tb, src, all)
		check("ProbOne", 0, func() { lb.ProbOne(c1, &got[0]) },
			func(r int) float64 { return ProbLess(bases[r], c1.forms, c1.t) })
		both := func() { lb.ProbBothOne(c1, c2, &got[0], &got[1]) }
		check("ProbBothOne marginal", 0, both, func(r int) float64 {
			pu, _ := ProbOneAndBothOne(bases[r], c1, c2)
			return pu
		})
		check("ProbBothOne", 1, both, func(r int) float64 { return ProbBothOne(bases[r], c1, c2) })

		events := make([]CoinEvent, 1+src.Intn(4))
		for i := range events {
			events[i] = CoinEvent{Coin: laneCoin(tb, src, all), Want: src.Intn(3) != 0}
		}
		before := append([]CoinEvent(nil), events...)
		check("ProbConj", 0, func() { lb.ProbConj(events, &got[0]) },
			func(r int) float64 { return ProbConj(bases[r], events) })
		for i := range events {
			if events[i].Want != before[i].Want {
				tb.Fatalf("ProbConj left event %d's Want flipped", i)
			}
		}
	}
}

// TestLanesMatchScalar is the differential test of the lane walks: every
// lane of ProbOne, ProbBothOne (joint and marginal) and
// ProbConj must equal the scalar query under base ∧ {segment = r} to
// the bit, over random bases, segments of width 1..7 (two chunks at 7),
// coins with t = 0 and t = 2^b, negated ProbConj events, and lanes that
// die inconsistent partway through a walk.
func TestLanesMatchScalar(t *testing.T) {
	src := prng.New(1606)
	var lb LaneBasis
	var cnt laneCounts
	for trial := 0; trial < 400; trial++ {
		laneTrial(t, src, &lb, &cnt)
	}
	if cnt.compared < 100000 || cnt.mixed < 300 || cnt.zero < 1000 {
		t.Fatalf("sweep too weak: %+v", cnt)
	}
}

// FuzzLaneWalk drives laneTrial from fuzzer-chosen seeds.
func FuzzLaneWalk(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 64, 1606, 0xdeadbeef} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		var lb LaneBasis
		var cnt laneCounts
		laneTrial(t, prng.New(seed), &lb, &cnt)
	})
}

// TestLaneBasisRejectsConstrainedSegment: a base that fixes a segment
// bit or has a row touching the segment is an error, not a slow path.
func TestLaneBasisRejectsConstrainedSegment(t *testing.T) {
	var lb LaneBasis
	bs := NewBasis()
	bs.FixBit(5, true)
	if err := lb.Reset(bs, 4, 3); err == nil {
		t.Error("segment over a fixed bit accepted")
	}
	bs = NewBasis()
	bs.Add(Form{Mask: Vec128{Lo: 1 << 2, Hi: 1}}, true)
	bs.Add(Form{Mask: Vec128{Lo: 1<<3 | 1<<9}}, false)
	if err := lb.Reset(bs, 8, 2); err == nil {
		t.Error("segment over a base row accepted")
	}
	if err := lb.Reset(bs, 10, 6); err != nil {
		t.Errorf("free segment rejected: %v", err)
	}
	for _, w := range []int{0, 63} {
		if err := lb.Reset(NewBasis(), 0, w); err == nil {
			t.Errorf("segment width %d accepted", w)
		}
	}
	if err := lb.Reset(NewBasis(), 125, 4); err == nil {
		t.Error("segment past bit 127 accepted")
	}
}

// TestLaneWalkAllocFree backs the //sbw:allocfree annotations on the
// lane queries: once the row stack and the frames have grown, a whole
// segment's worth of queries — Reset, both chunks of a 7-bit segment,
// ProbOne, ProbBothOne and a negated ProbConj — allocates nothing.
func TestLaneWalkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fam := MustFamily(6, 2)
	events := make([]CoinEvent, 4)
	for i := range events {
		coin, err := NewCoinFromForms(fam.WindowForms(uint64(3+5*i), 3*(i%2), 3), uint64(1+i), 6)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = CoinEvent{Coin: coin, Want: i%3 != 0}
	}
	bs := NewBasis()
	bs.FixBit(1, true)
	bs.FixBit(10, false)
	var lb LaneBasis
	var p1, p11, pc [64]float64
	run := func() {
		if err := lb.Reset(bs, 3, 7); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < lb.Chunks(); c++ {
			lb.SetChunk(c)
			lb.ProbOne(events[0].Coin, &p1)
			lb.ProbBothOne(events[0].Coin, events[1].Coin, &p1, &p11)
			lb.ProbConj(events, &pc)
		}
	}
	run() // grow the row stack and the frames
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("lane queries allocate %v objects per segment at steady state, want 0", n)
	}
}
