package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"macrochip/internal/harness"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every mainstream Linux build.
const clockTicks = 100

// selfCPUSeconds is this process's user+sys CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// procCPUSeconds reads a live process's user+sys CPU time from
// /proc/<pid>/stat (0 when the process is gone).
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields resume after the
	// last ')'. utime and stime are fields 14 and 15 of the full line.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// cpuSeconds is this process's CPU time plus that of the given live
// children.
func cpuSeconds(children []int) float64 {
	t := selfCPUSeconds()
	for _, pid := range children {
		t += procCPUSeconds(pid)
	}
	return t
}

// hwmKiB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; pid 0 means this process.
func hwmKiB(pid int) float64 {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return v
		}
	}
	return 0
}

// resetPeakRSS restarts the peak-resident-set counters of this process and
// the given children from their current resident sets, so the next
// peakRSSMiB reads the peak of one unit. Where the kernel lacks the reset,
// peaks run from process start.
func resetPeakRSS(children []int) {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	for _, pid := range children {
		_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
	}
}

// peakRSSMiB sums the peak resident sets of this process and its live
// children.
func peakRSSMiB(children []int) float64 {
	kib := hwmKiB(0)
	for _, pid := range children {
		kib += hwmKiB(pid)
	}
	return kib / 1024
}

// envRecord describes the machine and build a run measured, so every
// number can be traced to its hardware, toolchain and model version.
type envRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	ModelSalt  string `json:"model_salt"`
}

func environment() envRecord {
	e := envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
		ModelSalt:  harness.ModelSalt,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
