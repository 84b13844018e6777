package main

import "testing"

func TestLoadUnknownBenchmark(t *testing.T) {
	if nw, err := load("nosuch", ""); err == nil {
		t.Fatalf("load(%q) = %v, want an error", "nosuch", nw)
	}
	if _, err := load("c17", ""); err != nil {
		t.Fatalf("load(%q): %v", "c17", err)
	}
}

func TestValidMode(t *testing.T) {
	for _, m := range []string{"report", "grade", "testset", "redundancies", "vectors"} {
		if !validMode(m) {
			t.Errorf("validMode(%q) = false", m)
		}
	}
	if validMode("nosuch") {
		t.Error(`validMode("nosuch") = true`)
	}
}
