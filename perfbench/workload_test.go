package main

import "testing"

func TestSameSeedSameOpStream(t *testing.T) {
	for _, s := range specs {
		a := genStream(s, 42, 0.5).hash()
		b := genStream(s, 42, 0.5).hash()
		if a != b {
			t.Fatalf("%s: seed 42 hashed to %s and then %s", s.name, a, b)
		}
		if c := genStream(s, 43, 0.5).hash(); c == a {
			t.Fatalf("%s: seeds 42 and 43 gave the same op stream %s", s.name, a)
		}
	}
}

func TestValuesCarryOpNumbers(t *testing.T) {
	st := genStream(specs[0], 1, 0.1)
	for _, n := range []int{0, 1, st.total() - 1} {
		if got := opOf(st.value(n)); got != int64(n) {
			t.Fatalf("value of op %d decodes to %d", n, got)
		}
	}
	if opOf(nil) != -1 {
		t.Fatal("a missing value must decode to -1")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestHistQuantileWithinBucketError(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	c := h.snap()
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := histQuantile(c, q); got < want*0.9 || got > want*1.1 {
			t.Fatalf("q%.2f = %v, want %v within 10%%", q, got, want)
		}
	}
}
