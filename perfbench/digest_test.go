package main

import (
	"strings"
	"testing"
)

func TestCheckDigest(t *testing.T) {
	out := []byte("pattern,network\nuniform,ptp\n")
	good := digest(out)
	if err := checkDigest(good, out); err != nil {
		t.Fatalf("matching digest rejected: %v", err)
	}
	corrupted := "0" + good[1:]
	if corrupted == good {
		corrupted = "1" + good[1:]
	}
	if err := checkDigest(corrupted, out); err == nil {
		t.Fatal("corrupted digest accepted")
	}
}

func TestCheckOutputsFailsOnCorruptedPin(t *testing.T) {
	units := []unitResult{{output: []byte("a,b\n1,2\n")}, {output: []byte("a,b\n1,2\n")}}
	saved := pinnedDigests["fig6-sweep"]
	defer func() { pinnedDigests["fig6-sweep"] = saved }()

	pinnedDigests["fig6-sweep"] = digest(units[0].output)
	if err := checkOutputs("fig6-sweep", pinSeed, units); err != nil {
		t.Fatalf("correct pin rejected: %v", err)
	}
	pinnedDigests["fig6-sweep"] = strings.Repeat("0", 64)
	if err := checkOutputs("fig6-sweep", pinSeed, units); err == nil {
		t.Fatal("corrupted pin accepted")
	}
	// Other seeds are not pinned, but units must still agree.
	if err := checkOutputs("fig6-sweep", pinSeed+1, units); err != nil {
		t.Fatalf("unpinned seed rejected: %v", err)
	}
	units[1].output = []byte("a,b\n1,3\n")
	if err := checkOutputs("fig6-sweep", pinSeed+1, units); err == nil {
		t.Fatal("diverging units accepted")
	}
}

// A failed verification must fail every operation of the run.
func TestSummarizeCountsVerificationFailure(t *testing.T) {
	units := []unitResult{{wall: 1, cpu: 1, rss: 10, cells: 10, events: 100, attempted: 10, latencies: []float64{1000}}}
	res := summarize(units, []float64{0.1}, nil)
	if !res.Correct || res.Failed != 0 || res.Attempted != 10 {
		t.Fatalf("clean run summarized as %+v", res)
	}
	res = summarize(units, []float64{0.1}, errDigest)
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("failed verification summarized as correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

var errDigest = checkDigest(strings.Repeat("0", 64), []byte("x"))
