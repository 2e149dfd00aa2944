package interval

import (
	"testing"

	"fastmon/internal/tunit"
)

// decodeIntervals turns fuzz bytes into raw intervals: each byte pair
// yields one valid [lo, lo+1+w) interval, possibly overlapping others.
func decodeIntervals(b []byte) []Interval {
	var ivs []Interval
	for i := 0; i+1 < len(b); i += 2 {
		lo := tunit.Time(b[i])
		ivs = append(ivs, Interval{Lo: lo, Hi: lo + 1 + tunit.Time(b[i+1]%64)})
	}
	return ivs
}

// has is the brute-force membership oracle: a linear scan of arbitrary
// (not necessarily canonical) intervals.
func has(ivs []Interval, p tunit.Time) bool {
	for _, iv := range ivs {
		if iv.Lo <= p && p < iv.Hi {
			return true
		}
	}
	return false
}

// TestIntoVariantsMatchAllocating checks every kernel operation and its
// allocating wrapper against hand-computed results.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	a := FromPoints(0, 10, 20, 30, 40, 50)
	b := FromPoints(5, 25, 45, 60)
	var dst Set
	for _, c := range []struct {
		op    string
		into  func(dst *Set)
		alloc Set
		want  Set
	}{
		{"Union", func(d *Set) { a.UnionInto(b, d) }, a.Union(b), FromPoints(0, 30, 40, 60)},
		{"Intersect", func(d *Set) { a.IntersectInto(b, d) }, a.Intersect(b), FromPoints(5, 10, 20, 25, 45, 50)},
		{"Subtract", func(d *Set) { a.SubtractInto(b, d) }, a.Subtract(b), FromPoints(0, 5, 25, 30, 40, 45)},
		{"Shift", func(d *Set) { a.ShiftInto(7, d) }, a.Shift(7), FromPoints(7, 17, 27, 37, 47, 57)},
		{"Clip", func(d *Set) { a.ClipInto(8, 42, d) }, a.Clip(8, 42), FromPoints(8, 10, 20, 30, 40, 42)},
		{"ShiftClip", func(d *Set) { a.ShiftClipInto(7, 8, 42, d) }, a.Shift(7).Clip(8, 42), FromPoints(8, 17, 27, 37)},
	} {
		c.into(&dst)
		if !dst.Equal(c.want) || !c.alloc.Equal(c.want) {
			t.Fatalf("%s: kernel %v, allocating %v, want %v", c.op, dst, c.alloc, c.want)
		}
	}
	// Degenerate windows must clear the destination, not leave stale data.
	a.ClipInto(42, 42, &dst)
	if !dst.Empty() {
		t.Fatalf("ClipInto empty window = %v", dst)
	}
	a.ShiftClipInto(0, 50, 10, &dst)
	if !dst.Empty() {
		t.Fatalf("ShiftClipInto inverted window = %v", dst)
	}
}

func TestAccum(t *testing.T) {
	var acc Accum
	if !acc.Empty() {
		t.Fatal("zero Accum not empty")
	}
	acc.Add(FromPoints(10, 20))
	acc.Add(FromPoints(15, 30))
	acc.Add(Set{})
	acc.Add(FromPoints(40, 50))
	want := FromPoints(10, 30, 40, 50)
	if !acc.Result().Equal(want) {
		t.Fatalf("Accum = %v, want %v", acc.Result(), want)
	}
	frozen := acc.Copy()
	acc.Reset()
	if !acc.Empty() || !frozen.Equal(want) {
		t.Fatal("Reset corrupted frozen copy")
	}
	acc.Add(FromPoints(1, 2))
	if !acc.Result().Equal(FromPoints(1, 2)) {
		t.Fatalf("Accum after reset = %v", acc.Result())
	}
}

func TestScratchPool(t *testing.T) {
	s := GetScratch()
	FromPoints(1, 5).UnionInto(FromPoints(3, 9), s)
	if !s.Equal(FromPoints(1, 9)) {
		t.Fatalf("scratch union = %v", s)
	}
	PutScratch(s)
	s2 := GetScratch()
	defer PutScratch(s2)
	if !s2.Empty() {
		t.Fatalf("reused scratch not empty: %v", s2)
	}
}

// FuzzIntervalInto checks the in-place kernel against a brute-force
// oracle: for arbitrary inputs, shifts and windows, every operation must
// return a canonical set whose membership at every integer point of the
// reachable range matches the point-wise definition of the operation on
// the raw decoded intervals. Endpoints are integers, so agreement on the
// integer points plus canonical form pins the exact result.
func FuzzIntervalInto(f *testing.F) {
	f.Add([]byte{0, 10, 20, 5}, []byte{5, 8}, int64(7), int64(3), int64(90))
	f.Add([]byte{}, []byte{1, 1}, int64(-4), int64(0), int64(0))
	f.Add([]byte{255, 63, 0, 63, 128, 1}, []byte{127, 40, 130, 2}, int64(-100), int64(50), int64(40))
	f.Fuzz(func(t *testing.T, ab, bb []byte, d, lo, hi int64) {
		ra, rb := decodeIntervals(ab), decodeIntervals(bb)
		a, b := New(ra...), New(rb...)
		sh := tunit.Time(d % 1000)
		wlo, whi := tunit.Time(lo%512), tunit.Time(hi%512)
		inWin := func(p tunit.Time) bool { return wlo <= p && p < whi }
		var dst Set
		check := func(op string, want func(p tunit.Time) bool) {
			t.Helper()
			if !dst.Canonical() {
				t.Fatalf("%s(%v, %v): non-canonical %v", op, a, b, dst)
			}
			// Inputs lie in [0, 320); shifts and windows stay within ±1000
			// and ±512, so every result lies in [-1024, 1344).
			for p := tunit.Time(-1024); p < 1344; p++ {
				if got := has(dst.Intervals(), p); got != want(p) {
					t.Fatalf("%s(%v, %v; shift %v, window [%v,%v)) = %v: point %v member=%v, want %v",
						op, a, b, sh, wlo, whi, dst, p, got, !got)
				}
			}
		}
		a.UnionInto(b, &dst)
		check("UnionInto", func(p tunit.Time) bool { return has(ra, p) || has(rb, p) })
		a.IntersectInto(b, &dst)
		check("IntersectInto", func(p tunit.Time) bool { return has(ra, p) && has(rb, p) })
		a.SubtractInto(b, &dst)
		check("SubtractInto", func(p tunit.Time) bool { return has(ra, p) && !has(rb, p) })
		a.ShiftInto(sh, &dst)
		check("ShiftInto", func(p tunit.Time) bool { return has(ra, p-sh) })
		a.ClipInto(wlo, whi, &dst)
		check("ClipInto", func(p tunit.Time) bool { return has(ra, p) && inWin(p) })
		a.ShiftClipInto(sh, wlo, whi, &dst)
		check("ShiftClipInto", func(p tunit.Time) bool { return has(ra, p-sh) && inWin(p) })

		// The accumulator is a running union.
		var acc Accum
		acc.Add(a)
		acc.Add(b)
		acc.Add(a)
		dst = acc.Copy()
		check("Accum", func(p tunit.Time) bool { return has(ra, p) || has(rb, p) })
	})
}
