package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the layers CPU profile samples are charged to, in
// report order. "other" collects what no layer claims (the benchmark's
// own frames, obs instrumentation, standard-library code with no
// repository caller); the attribution is useful while it stays small.
var cpuLayers = []string{
	"ccompile", "ccov", "hw", "hw_devices", "kernel", "codegen",
	"frontend", "devil", "campaign", "experiment", "runtime", "other",
}

// pkgLayers maps repository packages to layers. A package matches an
// entry equal to it, or one ending in "/" that prefixes it; the first
// match wins.
var pkgLayers = []struct{ pkg, layer string }{
	{"repro/internal/cdriver/ccompile", "ccompile"},
	{"repro/internal/cdriver/ccov", "ccov"},
	{"repro/internal/cdriver/cinterp", "other"},
	{"repro/internal/cdriver/", "frontend"},
	{"repro/internal/mutation/cmut", "frontend"},
	{"repro/internal/mutation/devilmut", "devil"},
	{"repro/internal/hw", "hw"},
	{"repro/internal/hw/", "hw_devices"},
	{"repro/internal/kernel", "kernel"},
	{"repro/internal/devil/codegen", "codegen"},
	{"repro/internal/devil", "devil"},
	{"repro/internal/devil/", "devil"},
	{"repro/internal/campaign", "campaign"},
	{"repro/internal/experiment", "experiment"},
}

// pkgOf returns the package path of a Go symbol name such as
// "repro/internal/hw.(*Bus).Read" or "runtime.mallocgc".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // generic instantiation arguments
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

// isRuntime reports whether a package belongs to the Go runtime.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// repoLayer maps a repository package to its layer ("" for packages
// outside the repository's internal tree).
func repoLayer(pkg string) string {
	for _, e := range pkgLayers {
		if pkg == e.pkg || (strings.HasSuffix(e.pkg, "/") && strings.HasPrefix(pkg, e.pkg)) {
			return e.layer
		}
	}
	if strings.HasPrefix(pkg, "repro/internal/") {
		return "other"
	}
	return ""
}

// stackLayer charges one sample's stack (leaf first) to a layer: the
// leaf frame's package, except that standard-library code outside the
// runtime (encoding/json, strconv, syscall, ...) is charged to its
// nearest repository caller, the layer that asked for the work. A stack
// with no repository frame above such a leaf is "other".
func stackLayer(stack []string) string {
	for i, sym := range stack {
		pkg := pkgOf(sym)
		if i == 0 && isRuntime(pkg) {
			return "runtime"
		}
		if l := repoLayer(pkg); l != "" {
			return l
		}
		if pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// cpuShares lists the CPU profile at path with `go tool pprof -traces`
// and returns each layer's share of the sampled CPU time, and the CPU
// time sampled.
func cpuShares(path string) (map[string]float64, time.Duration, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	return traceShares(string(out))
}

// traceShares charges each trace of a `pprof -traces` listing to a
// layer. A trace follows a separator line; its first line holds the
// sampled time and the leaf frame, each later line one caller. Inlined
// frames carry an " (inline)" suffix.
func traceShares(listing string) (map[string]float64, time.Duration, error) {
	by := make(map[string]time.Duration)
	var total, cur time.Duration
	var stack []string
	inTrace := false
	flush := func() {
		if len(stack) > 0 {
			by[stackLayer(stack)] += cur
			total += cur
		}
		stack = nil
	}
	for _, line := range strings.Split(listing, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTrace = true
			continue
		}
		f := strings.Fields(line)
		if !inTrace || len(f) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				return nil, 0, fmt.Errorf("go tool pprof: unexpected trace line %q", line)
			}
			cur, f = d, f[1:]
		}
		stack = append(stack, f[0])
	}
	flush()
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = ratio(float64(by[l]), float64(total))
	}
	return shares, total, nil
}
