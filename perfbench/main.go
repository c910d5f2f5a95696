// Command perfbench is the repository's end-to-end benchmark. It builds
// nothing itself (run.sh builds the daemon and this program from the
// checkout); it boots a fresh `watchman serve` per run, drives it with a
// seeded open-loop generator, checks the daemon's answers, and prints
// every metric by name and unit, ending with one JSON line.
//
// Usage:
//
//	bash perfbench/run.sh --workload tpcd-hits --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the untraced end-to-end run; --trace 1 is the traced layer
// ladder, which times calls into each module from this program's own
// files and prints the per-layer budget table. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit bounds one run, leaving margin under the 180 s a run may take.
const runLimit = 170 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measuring time of one run")
	traced := fs.Int("trace", 0, "0 = untraced end-to-end run, 1 = traced layer ladder")
	root := fs.String("root", ".", "checkout root")
	daemonBin := fs.String("daemon", "", "watchman binary built from the checkout")
	probe := fs.Bool("backlog-probe", false, "climb the workload's uncapped ladder into the known tuner-backlog defect (setquery-adaptive); not a benchmark run")
	nullServe := fs.String("null-serve", "", "serve the null handler on this address until SIGTERM (the traced run's null daemon)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nullServe != "" {
		return serveNull(*nullServe)
	}
	s, err := findSpec(*name)
	if err != nil {
		return err
	}
	if *probe {
		if s.probeLadder == nil {
			return fmt.Errorf("workload %s has no backlog probe", s.name)
		}
		s.ladder = s.probeLadder
	}

	if *daemonBin == "" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -daemon, positive -seconds and -trace 0 or 1")
	}
	// A wedged daemon must not hold the run past its time limit: give up
	// with a failure instead. Exiting kills the daemons (Pdeathsig).
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; giving up\n", runLimit)
		os.Exit(3)
	})
	e := env{root: *root, daemon: *daemonBin, out: filepath.Join(*root, ".bench_build", "perfbench")}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	stage("prepare")
	p, err := prepare(e, s, *seed, *seconds)
	if err != nil {
		return err
	}
	host := hostBlock(e.root)
	if *traced == 1 {
		t, err := runTraced(e, p, *seconds)
		if err != nil {
			return err
		}
		printHost(stdout, host, t.daemonCmd, t.goVersion)
		printTraced(stdout, t)
		return emit(stdout, t.result())
	}
	r, err := runEndToEnd(e, p)
	if err != nil {
		return err
	}
	printHost(stdout, host, r.daemonCmd, r.goVersion)
	printEndToEnd(stdout, r)
	return emit(stdout, r.result())
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stage notes on standard error how far into the run a step began, so the
// time a run spends outside its measured phases shows.
func stage(name string) {
	fmt.Fprintf(os.Stderr, "perfbench: %6.2fs %s\n", float64(nanos())/1e9, name)
}

// emit prints the result as the last line of standard output.
func emit(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// host is the host-of-record block every result names.
type host struct {
	nproc, gomaxprocs int
	cpu, kernel, goV  string
	commit, tree      string
	when              string
}

func hostBlock(root string) host {
	h := host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goV:        runtime.Version(),
		cpu:        "unknown",
		kernel:     "unknown",
		commit:     gitCommit(root),
		tree:       treeHash(root),
		when:       wallStamp(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.kernel = strings.TrimSpace(string(b))
	}
	return h
}

// gitCommit reads HEAD from the checkout's .git directory, if it has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return ref
}

// treeHash fingerprints the daemon's sources (go.mod, cmd/, internal/),
// which identifies the code measured even where the checkout is not a git
// repository.
func treeHash(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil // unreadable entries only weaken the fingerprint
		})
	}
	files = append(files, filepath.Join(root, "go.mod"))
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func printHost(w io.Writer, h host, daemonCmd []string, daemonGo string) {
	fmt.Fprintln(w, "== host of record ==")
	fmt.Fprintf(w, "nproc            %d\n", h.nproc)
	fmt.Fprintf(w, "GOMAXPROCS       %d\n", h.gomaxprocs)
	fmt.Fprintf(w, "cpu              %s\n", h.cpu)
	fmt.Fprintf(w, "go               %s (daemon %s)\n", h.goV, daemonGo)
	fmt.Fprintf(w, "kernel           %s\n", h.kernel)
	fmt.Fprintf(w, "commit           %s\n", h.commit)
	fmt.Fprintf(w, "source tree      %s\n", h.tree)
	fmt.Fprintf(w, "daemon           watchman %s\n", strings.Join(daemonCmd, " "))
	fmt.Fprintf(w, "started          %s\n", h.when)
	fmt.Fprintln(w)
}
