package main

import (
	"math"
	"strings"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected values are those of Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}, [3]float64{1.2, 1.5, 1.8}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
}

func TestShare(t *testing.T) {
	if got := share(3, 4, 1); got != 0.75 {
		t.Errorf("share(3, 4) = %v", got)
	}
	if got := share(0, 0, 1); got != 1 {
		t.Errorf("share(0, 0) = %v, want the empty value", got)
	}
}

func TestSummarize(t *testing.T) {
	in := `{"provenance":{"workload":"flow-atpg"}}
{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":10,"unit":"s"}}}
# a comment
{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":12,"unit":"s"}}}
{"correct":true,"attempted":2,"failed":0,"metrics":{"wall_s":{"value":11,"unit":"s"}}}
`
	var out strings.Builder
	if err := summarize(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	// quantiles([10, 11, 12], n=4) = [10, 11, 12]: spread (12-10)/11.
	for _, want := range []string{"3 runs", "wall_s", "median 11 ", "q1 10 ", "q3 12 ", "spread 0.1818"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
	if err := summarize(strings.NewReader(in[:100]), &out); err == nil {
		t.Error("summarize accepted a single run")
	}
}
