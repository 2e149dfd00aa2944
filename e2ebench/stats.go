package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method). It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

// share returns num/den, or empty when there is nothing to divide by.
func share(num, den, empty float64) float64 {
	if den == 0 {
		return empty
	}
	return num / den
}

// summarize reads the result lines of several runs (other lines are
// skipped) and prints, per metric, the median, the quartiles and the
// spread: what one side of a comparison reports.
func summarize(r io.Reader, w io.Writer) error {
	vals := map[string][]float64{}
	units := map[string]string{}
	runs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var res result
		if json.Unmarshal(sc.Bytes(), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs < 2 {
		return errors.New("summarize needs the result lines of at least two runs")
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n", runs)
	for _, name := range names {
		vs := vals[name]
		q := quartiles(vs)
		fmt.Fprintf(w, "%-24s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f\n",
			name, units[name], q[1], q[0], q[2], spread(vs))
	}
	return nil
}
