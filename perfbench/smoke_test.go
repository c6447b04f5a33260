package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// smokeSeed is not the pinned seed: tiny workloads have no pin.
const smokeSeed = 7

// binDir holds the macrosim the tests build; TestMain removes it.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-macrosim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// workerBin builds macrosim once for the tests that need a fleet; traced
// runs need one for the dist ladder step.
var workerBin = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "macrosim")
	if out, err := exec.Command("go", "build", "-o", bin, "macrochip/cmd/macrosim").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building macrosim: %v\n%s", err, out)
	}
	return bin, nil
})

func smokeOptions(t *testing.T, name string) options {
	bin, err := workerBin()
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: name, seed: smokeSeed, seconds: 0, workers: 2,
		workDir: t.TempDir(), spansDir: t.TempDir(), workerBin: bin}
}

// runSmoke drives one workload through set-up, one unit and
// verification, then a traced run, and requires both to pass.
func runSmoke(t *testing.T, w scenario, o options) {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	units := measureUnits(w, 0)
	err := w.verify(units)
	w.teardown()
	if err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.failed != 0 || u.cells == 0 || u.events == 0 {
		t.Fatalf("unit: failed %d, cells %d, events %d", u.failed, u.cells, u.events)
	}
	res, err := runTraced(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range perLayerMetrics {
		v, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
		if timeUnits[m.unit] && v.Value == 0 {
			t.Errorf("traced run reports time %s as 0", m.name)
		}
	}
}

func TestSmokeFig6Sweep(t *testing.T) {
	o := smokeOptions(t, "fig6-sweep")
	runSmoke(t, &fig6Sweep{o: o, base: tinyFig6(smokeSeed)}, o)
}

func TestSmokeStudyReplay(t *testing.T) {
	o := smokeOptions(t, "study-replay")
	runSmoke(t, &studyReplay{o: o, scale: tinyScale, inf: tinyInference(smokeSeed)}, o)
}

func TestSmokeDistSweep(t *testing.T) {
	o := smokeOptions(t, "dist-sweep")
	runSmoke(t, &distSweep{o: o, fig: tinyFig6(smokeSeed), scale: tinyScale, inf: tinyInference(smokeSeed)}, o)
}

func TestSmokeDaemonMixed(t *testing.T) {
	o := smokeOptions(t, "daemon-mixed")
	runSmoke(t, &daemonMixed{o: o}, o)
}

// timeUnits are the units of per-layer times, every one of which a traced
// run must measure.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}
