package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// printEnvelope writes the run's environment: enough to tell whether two
// results came from comparable machines and code.
func printEnvelope(out io.Writer, cfg runConfig) {
	fmt.Fprintf(out, "# aide-e2e workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.traced)
	fmt.Fprintf(out, "# env: git_rev=%s go=%s gomaxprocs=%d nproc=%d cpu=%q seed=%d run_seconds=%g transport=%q\n",
		gitRev(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), cfg.seed, cfg.seconds,
		"loopback TCP, in-process surrogates")
}

// gitRev is the revision the binary was built from, when the build saw a
// git checkout.
func gitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
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

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
