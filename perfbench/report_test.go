package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(v, n=4).
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.5, 2.5, 2.0, 9.0}, [3]float64{1.625, 2.25, 7.375}},
	} {
		q1, med, q3 := quartiles(c.v)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, med, q3, c.want)
				break
			}
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	lat := make([]time.Duration, 2000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	s := summarize(lat)
	if s.p50 != 1000*time.Microsecond || s.p99 != 1980*time.Microsecond {
		t.Fatalf("p50 %v p99 %v", s.p50, s.p99)
	}
	if s.tailName != "p99" {
		t.Fatalf("tail %s: p99.9 has only 2 samples beyond it", s.tailName)
	}
	lat[0] = failedLat
	if s := summarize(lat); s.failedLat != 1 || s.p99 == failedLat {
		t.Fatalf("one failure: %+v", s)
	}
}
