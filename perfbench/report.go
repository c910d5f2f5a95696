package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/trace"
)

// msOf renders nanoseconds as fractional milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }

// tailLabel names a tail quantile, e.g. "p99" or "p97.3".
func tailLabel(q float64) string {
	return "p" + strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", q*100), "0"), ".")
}

// sizedRefs is the length of the prefix the cache was sized on.
func sizedRefs(s workloadSpec, n int) int {
	if s.sizeRefs > 0 && s.sizeRefs < n {
		return s.sizeRefs
	}
	return n
}

// workloadBlock describes the inputs of a run.
func workloadBlock(w io.Writer, p *prepared, conns int) {
	s := p.spec
	ts := trace.ComputeStats(p.tr)
	fmt.Fprintf(w, "== workload %s (seed %d) ==\n", s.name, p.seed)
	fmt.Fprintf(w, "trace            %s: %d references (%d warm-up into the boot snapshot), %d unique\n",
		p.tr.Name, ts.Queries, p.warmN, ts.Unique)
	fmt.Fprintf(w, "working set      %d bytes over the whole trace; cache %d bytes (%.3f× the working set of the first %d references)\n",
		ts.UniqueBytes, p.capacity, s.cacheFrac, sizedRefs(s, p.tr.Len()))
	fmt.Fprintf(w, "loop             open, Poisson arrivals, %d connections; nominal %g req/s; ladder %v req/s; p99 limit %.1f ms\n",
		conns, s.nominal, s.ladder, msOf(s.p99Limit))
	if s.invalEvery > 0 {
		fmt.Fprintf(w, "write side       invalidate every %.0f ms (rotation %v); snapshot every %.0f ms\n",
			msOf(s.invalEvery), s.invalRels, msOf(s.snapshotEvery))
	}
	fmt.Fprintln(w)
}

func printEndToEnd(w io.Writer, r *e2eReport) {
	workloadBlock(w, r.p, loadConns())
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\trate\tn\twindows\tp50 ms\ttail\ttail ms\tgen late p50/p99 ms\tbacklog\tdaemon cpu ms/kref\tmeets limit")
	row := func(name string, rate float64, s summary, verdict string) {
		fmt.Fprintf(tw, "%s\t%g\t%d\t%d\t%.3f\t%s\t%.3f\t%.3f/%.3f\t%v\t%.1f\t%s\n", name, rate, s.n, s.windows, msOf(s.p50),
			tailLabel(s.tailQ), msOf(s.tailV), msOf(s.genLateP50), msOf(s.genLateP99), s.backlog, s.cpuPerKref, verdict)
	}
	row("warmup", r.p.spec.nominal, r.warmup, "-")
	row("nominal", r.p.spec.nominal, r.nominal, "-")
	for i, s := range r.rungs {
		row(fmt.Sprintf("rung %d", i+1), r.rungRates[i], s, fmt.Sprint(meetsLimit(s, r.p.spec.p99Limit)))
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== end-to-end metrics (gated: in the JSON line and BENCHMARK.json) ==")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	gated := map[bool]string{true: "gated", false: "printed"}
	for _, m := range r.metricList() {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\n", m.name, m.Value, m.Unit, gated[m.gated], m.note)
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== scrapes by endpoint ==")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, ep := range scrapeEndpoints(r.p.spec) {
		lat := sortedCopy(r.ops.byEndpoint[ep])
		v, q, _ := tail(lat, 0.95)
		fmt.Fprintf(tw, "%s\tn=%d\tp50 %.3f ms\t%s %.3f ms\n", ep, len(lat), msOf(quantile(lat, 0.5)), tailLabel(q), msOf(v))
	}
	tw.Flush()
	fmt.Fprintln(w)

	fmt.Fprintln(w, "== correctness gate ==")
	fmt.Fprintf(w, "references acknowledged %d, client hits %d, daemon references %d, daemon hits %d\n",
		r.refs.acked, r.refs.hits, r.end.References-r.boot.References,
		(r.end.Hits+r.end.DerivedHits)-(r.boot.Hits+r.boot.DerivedHits))
	fmt.Fprintf(w, "daemon CSR %.4f, serial partitioned replay CSR %.4f (bound ±%g); evictions %d, derived hits %d\n",
		r.end.CostSavingsRatio, r.serialCSR, r.p.spec.csrBound, r.end.Evictions, r.end.DerivedHits)
	if len(r.ops.snapshots) > 0 {
		var el, pause []float64
		for _, s := range r.ops.snapshots {
			el, pause = append(el, s.ElapsedMS), append(pause, s.MaxLockPauseMS)
		}
		fmt.Fprintf(w, "snapshots %d: median %.2f ms, median max lock pause %.3f ms, last %d bytes\n",
			len(r.ops.snapshots), medianFloat(el), medianFloat(pause), r.ops.snapshots[len(r.ops.snapshots)-1].Bytes)
	}
	if len(r.gate) == 0 {
		fmt.Fprintln(w, "PASS")
	}
	for _, g := range r.gate {
		fmt.Fprintln(w, "FAIL:", g)
	}
	if r.invalid != "" {
		fmt.Fprintln(w, "INVALID RUN:", r.invalid)
	}
	fmt.Fprintln(w)
}

// formatSeconds renders durations in seconds as milliseconds.
func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x*1e3)
	}
	return strings.Join(parts, " ") + " ms"
}

// namedMetric is a metric with its name and a note for the table.
type namedMetric struct {
	name string
	metric
	note string
	// gated marks the metrics BENCHMARK.json lists as end-to-end.
	gated bool
}

// metricList computes every end-to-end metric of the run.
func (r *e2eReport) metricList() []namedMetric {
	s := r.p.spec
	scrape, scrapeQ, _ := tail(sortedCopy(r.ops.scrapeLat), 0.95)
	out := []namedMetric{
		{"p50_ms", metric{msOf(r.nominal.p50), "ms"}, fmt.Sprintf("/v1/reference at %g req/s, n=%d, median of %d windows", s.nominal, r.nominal.n, r.nominal.windows), false},
		{"p99_ms", metric{msOf(r.nominal.tailV), "ms"}, fmt.Sprintf("%s, median of %d windows", tailLabel(r.nominal.tailQ), r.nominal.windows), false},
		{"slo_rate_rps", metric{r.slo, "1/s"}, fmt.Sprintf("highest rung meeting %.1f ms without backlog growth, log-interpolated toward the next", msOf(s.p99Limit)), false},
		{"csr", metric{r.afterNominal.CostSavingsRatio, "ratio"}, "/stats at the end of the nominal phase", true},
		{"hit_ratio", metric{r.afterNominal.HitRatio, "ratio"}, "/stats at the end of the nominal phase", true},
		{"setup_s", metric{medianFloat(r.setups), "s"}, fmt.Sprintf("median of %d boots, exec to /healthz: %s", len(r.setups), formatSeconds(r.setups)), true},
		{"rss_mb", metric{r.rssMB, "MiB"}, "daemon VmHWM at the end of the nominal phase", true},
		{"cpu_ms_per_kref", metric{r.cpuMS / (float64(r.cpuRefs) / 1000), "ms"}, fmt.Sprintf("daemon user+sys from boot through warm-up and nominal (%d references) and their settled background work", r.cpuRefs), false},
		{"scrape_p95_ms", metric{msOf(scrape), "ms"}, fmt.Sprintf("%s of %d scrapes", tailLabel(scrapeQ), len(r.ops.scrapeLat)), false},
		{"generator_cpu_ms_per_kref", metric{r.genCPUMS / (float64(r.nomRefs) / 1000), "ms"}, "this process over the nominal phase (harness cost)", false},
		{"failed_frac", metric{float64(r.failed) / float64(r.attempted), "ratio"}, fmt.Sprintf("%d of %d operations", r.failed, r.attempted), false},
	}
	if len(r.ops.invalLat) > 0 {
		v, q, ok := tail(sortedCopy(r.ops.invalLat), 0.90)
		note := fmt.Sprintf("%s of %d invalidations", tailLabel(q), len(r.ops.invalLat))
		if !ok {
			note = fmt.Sprintf("too few invalidations (%d) for a tail", len(r.ops.invalLat))
		}
		out = append(out, namedMetric{"inval_p90_ms", metric{msOf(v), "ms"}, note, false})
	}
	return out
}

// result is the end-to-end run's JSON line: the gated metrics only.
func (r *e2eReport) result() result {
	res := result{
		Correct:   len(r.gate) == 0 && r.invalid == "",
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range r.metricList() {
		if m.gated {
			res.Metrics[m.name] = m.metric
		}
	}
	return res
}

func printTraced(w io.Writer, t *tracedReport) {
	workloadBlock(w, t.p, loadConns())
	s := t.p.spec
	fmt.Fprintf(w, "traced ladder: %d timed references per rung after the warm-up; clock-read overhead %d ns per timed call\n", t.timedRefs, t.timerNs)
	fmt.Fprintf(w, "spans: %s\n\n", t.spansPath)

	fmt.Fprintf(w, "== per-layer budget (%s; p50 shares of the untraced loopback p50 %.1f µs) ==\n", s.name, t.p50Untr*1e3)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tmedian self µs\tmean self µs\tshare of p50\tallocs/ref\tin sum\tnote")
	for _, b := range t.budget {
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.1f%%\t%.2f\t%v\t%s\n", b.layer, b.medUs, b.meanUs,
			100*b.medUs/(t.p50Untr*1e3), b.allocs, b.inSum, b.note)
	}
	var top budgetRow
	for _, b := range t.budget[1:] {
		// The first row is the transport floor, not a layer of the daemon.
		if b.inSum && b.meanUs > top.meanUs {
			top = b
		}
	}
	fmt.Fprintf(tw, "ladder sum\t%.2f\t\t%.1f%%\t\t\t\n", t.ladderSum, 100*t.ladderSum/(t.p50Untr*1e3))
	fmt.Fprintf(tw, "untraced loopback p50\t%.2f\t\t100%%\t\t\tdaemon at %g req/s\n", t.p50Untr*1e3, s.nominal)
	tw.Flush()
	fmt.Fprintf(w, "largest mean self time among the daemon's layers: %s (%.2f µs per reference)\n\n", top.layer, top.meanUs)

	fmt.Fprintln(w, "== per-layer metrics ==")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range t.metrics {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", m.name, m.Value, m.Unit, m.note)
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== correctness gate ==")
	if len(t.gate) == 0 {
		fmt.Fprintln(w, "PASS (every rung's invariants hold; daemon load answered correctly; clean exit)")
	}
	for _, g := range t.gate {
		fmt.Fprintln(w, "FAIL:", g)
	}
	fmt.Fprintln(w)
}

// result is the traced run's JSON line: every per-layer metric.
func (t *tracedReport) result() result {
	res := result{Correct: len(t.gate) == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, m := range t.metrics {
		res.Metrics[m.name] = m.metric
	}
	return res
}
