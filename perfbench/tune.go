package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cophy"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// tuneSpec sizes a tune workload.
type tuneSpec struct {
	het     bool
	queries int
	// perRep sets the repetition count, --seconds / perRep (at least
	// minReps), never a measurement, so every commit does the same
	// work. For tune-hom it is about what a repetition (session,
	// checks, what-ifs) takes on the 2-vCPU box the benchmark was sized
	// on. For tune-het it is shorter than the ~6.5 s a repetition takes
	// there, so a run measures more than --seconds: sessions on
	// different W_het workloads vary by 10–20%, and the median needs
	// six of them to be steady.
	perRep time.Duration
}

var tuneSpecs = map[string]tuneSpec{
	"tune-het": {het: true, queries: 250, perRep: 2500 * time.Millisecond},
	"tune-hom": {het: false, queries: 1000, perRep: 750 * time.Millisecond},
}

// advisorOptions match cmd/cophy and cophyd's defaults.
var advisorOptions = cophy.Options{GapTol: 0.05, RootIters: 160, MaxNodes: 32}

// minReps is the fewest repetitions a run makes, so that the median
// session time rests on enough samples.
const minReps = 4

// whatifsPerRep is how many what-if requests each repetition answers.
const whatifsPerRep = 200

// tuneSetups is how many times a tune run repeats its set-up; setup_s
// is the median. One set-up takes about 40 ms, so a median of few
// samples moves with every scheduling hiccup.
const tuneSetups = 15

// ingestBatch is the statement count of one parsed batch, the size of
// a typical /ingest request.
const ingestBatch = 4

// whatIf answers one what-if request the way Daemon.WhatIf answers
// /whatif: parse the statement, key it by its canonical text so that it
// never shares INUM cache entries with another statement, and price it
// under the request's indexes ∪ X0 and under X0.
func whatIf(cat *catalog.Catalog, ad *cophy.Advisor, base *engine.Config, o op) (cost, baseCost float64, err error) {
	w, err := workload.Parse(cat, o.sql)
	if err != nil {
		return 0, 0, err
	}
	if w.Size() != 1 || w.Statements[0].Query == nil {
		return 0, 0, fmt.Errorf("want one SELECT, got %d statements", w.Size())
	}
	st := w.Statements[0]
	h := fnv.New64a()
	h.Write([]byte(st.String()))
	st.Query.ID = fmt.Sprintf("whatif-%016x", h.Sum64())
	cfg := engine.NewConfig(base.Indexes()...)
	for _, ix := range o.indexes {
		cfg.Add(&catalog.Index{Table: ix.Table, Key: ix.Key, Include: ix.Include, Clustered: ix.Clustered})
	}
	if cost, err = ad.Inum.StatementCost(st, cfg); err != nil {
		return 0, 0, err
	}
	baseCost, err = ad.Inum.StatementCost(st, base)
	return cost, baseCost, err
}

// tuneWorkload generates repetition rep's workload. Each repetition
// tunes a different workload drawn from the run seed, so the quality
// metrics average over several workloads.
func tuneWorkload(spec tuneSpec, seed int64, rep int) *workload.Workload {
	s := seed*1000 + int64(rep)
	if spec.het {
		return workload.Het(workload.HetConfig{Queries: spec.queries, Seed: s})
	}
	return workload.Hom(workload.HomConfig{Queries: spec.queries, Seed: s})
}

// batches renders a workload as SQL text in ingest-sized batches, the
// form a DBA loads a workload file in.
func batches(w *workload.Workload) []string {
	var out []string
	for i := 0; i < len(w.Statements); i += ingestBatch {
		var b strings.Builder
		for j := i; j < i+ingestBatch && j < len(w.Statements); j++ {
			if j > i {
				b.WriteString(";\n")
			}
			b.WriteString(w.Statements[j].String())
		}
		out = append(out, b.String())
	}
	return out
}

// session is one timed cold tuning session.
type session struct {
	res      *cophy.Result
	ad       *cophy.Advisor
	cands    int
	total    time.Duration // cophy.Candidates + first SolveCtx
	cpu      time.Duration // process CPU time over the same span
	candgen  time.Duration
	whatIfs  int64 // optimizer calls the session made
	tr       *obs.Trace
	hitRatio float64
}

// coldSession runs cophy.Candidates and the first SolveCtx on a fresh
// advisor; with traced set, the solve's context carries an obs.Trace.
func coldSession(cat *catalog.Catalog, eng *engine.Engine, w *workload.Workload, traced bool) (*session, error) {
	// Every session starts from a collected heap, as a fresh process's
	// would, not from the previous session's garbage.
	runtime.GC()
	ad := cophy.NewAdvisor(cat, eng, advisorOptions)
	ctx := context.Background()
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	calls0 := eng.WhatIfCalls()
	c0 := selfCPU()
	t0 := time.Now()
	s := cophy.Candidates(cat, w, cophy.CGenOptions{Covering: true})
	candgen := time.Since(t0)
	res, err := ad.NewSession(w, s, cophy.FractionOfData(cat, budgetFraction)).SolveCtx(ctx)
	total := time.Since(t0)
	cpu := selfCPU() - c0
	if err != nil {
		return nil, err
	}
	hits, misses := ad.Inum.ShapeStats()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	return &session{res: res, ad: ad, cands: len(s), total: total, cpu: cpu, candgen: candgen,
		whatIfs: eng.WhatIfCalls() - calls0, tr: tr, hitRatio: ratio}, nil
}

func runTune(cfg config, rep *report) error {
	spec := tuneSpecs[cfg.workload]
	reps := int(math.Ceil(float64(cfg.seconds) * float64(time.Second) / float64(spec.perRep)))
	if reps < minReps {
		reps = minReps
	}

	// Set-up: catalog, engine and the run's workloads. The first build
	// is kept; the other tuneSetups-1 builds are made between sessions
	// (the rest after the last one) and discarded, so the median samples
	// several moments of the run rather than one.
	var setupS samples
	setUp := func() (*catalog.Catalog, *engine.Engine, []*workload.Workload) {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		cat := tpch.Build(tpch.Config{ScaleFactor: 1})
		eng := engine.New(cat, engine.SystemA())
		loads := make([]*workload.Workload, reps)
		for r := range loads {
			loads[r] = tuneWorkload(spec, cfg.seed, r)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return cat, eng, loads
	}
	cat, eng, loads := setUp()
	// Warm the engine's plan-memo pools and the worker pools with one
	// small untimed session, so the first timed session is not the one
	// that pays for them.
	warm := workload.Hom(workload.HomConfig{Queries: 60, Seed: cfg.seed*1000 + 999})
	if _, err := coldSession(cat, eng, warm, false); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}

	chk := newChecker(cat, eng)
	var cpuMS samples
	var tuneMS, parseMS, whatifMS, gaps, imprs, untracedMS samples
	var candgen, build, prepare, solve, lpMS, cands, whatIfs, hitRatio, iters, nodes samples
	for r, w := range loads {
		if r > 0 && len(setupS) < tuneSetups {
			setUp()
		}
		// Ingest: parse the workload text batch by batch.
		for _, sql := range batches(w) {
			rep.attempted++
			t0 := time.Now()
			parsed, err := workload.Parse(cat, sql)
			parseMS.add(time.Since(t0))
			want := strings.Count(sql, ";\n") + 1
			switch {
			case err != nil:
				rep.fail("rep %d: parse: %v", r, err)
			case parsed.Size() != want:
				rep.fail("rep %d: parse accepted %d statements, sent %d", r, parsed.Size(), want)
			}
		}

		if cfg.trace {
			// Untraced twin of the traced session below, for the
			// tracing overhead.
			s, err := coldSession(cat, eng, w, false)
			if err != nil {
				return fmt.Errorf("rep %d: %w", r, err)
			}
			untracedMS.add(s.total)
		}
		rep.attempted++
		s, err := coldSession(cat, eng, w, cfg.trace)
		if err != nil {
			return fmt.Errorf("rep %d: %w", r, err)
		}
		tuneMS.add(s.total)
		cpuMS.add(s.cpu)
		if s.res.Infeasible {
			rep.fail("rep %d: infeasible recommendation: %v", r, s.res.Violated)
			continue
		}
		v := chk.recommendation(s.ad.Inum, w, s.res.Indexes, s.res.EstCost, s.res.Lower)
		for _, p := range v.problems {
			rep.fail("rep %d: %s", r, p)
		}
		gaps = append(gaps, 100*s.res.Gap)
		imprs = append(imprs, 100*v.improvement)

		// Price every statement of the tuned workload under X* ∪ X0
		// and under X0, the per-statement report of a tuning session.
		rec := chk.configOf(s.res.Indexes)
		for _, st := range w.Statements {
			rep.attempted++
			c, err1 := s.ad.Inum.StatementCost(st, rec)
			b, err2 := s.ad.Inum.StatementCost(st, chk.base)
			switch {
			case err1 != nil || err2 != nil:
				rep.fail("rep %d: what-if %s: %v %v", r, st.ID(), err1, err2)
			case st.Query != nil && c > b && !near(c, b):
				rep.fail("rep %d: what-if %s: cost %.6g above base cost %.6g", r, st.ID(), c, b)
			}
		}

		// What-if requests: the serve workloads' /whatif traffic,
		// answered in-process by the freshly tuned advisor.
		wr := clientRand(cfg.seed, -2-r)
		for i := 0; i < whatifsPerRep; i++ {
			o := whatifOp(wr)
			rep.attempted++
			t0 := time.Now()
			c, b, err := whatIf(cat, s.ad, chk.base, o)
			whatifMS.add(time.Since(t0))
			switch {
			case err != nil:
				rep.fail("rep %d: what-if %q: %v", r, o.sql, err)
			case c > b && !near(c, b):
				rep.fail("rep %d: what-if %q: cost %.6g above base cost %.6g", r, o.sql, c, b)
			}
		}

		candgen.add(s.candgen)
		cands = append(cands, float64(s.cands))
		whatIfs = append(whatIfs, float64(s.whatIfs))
		hitRatio = append(hitRatio, s.hitRatio)
		iters = append(iters, float64(s.res.Iters))
		nodes = append(nodes, float64(s.res.Nodes))
		if s.tr != nil {
			build.add(s.tr.Dur("build"))
			prepare.add(s.tr.Dur("inum.prepare"))
			solve.add(s.tr.Dur("solve"))
			lpMS.add(s.tr.Dur("lp.phase1") + s.tr.Dur("lp.phase2"))
		}
	}

	for len(setupS) < tuneSetups {
		setUp()
	}

	fmt.Printf("%s: %d repetitions, %d statements each\n", cfg.workload, reps, spec.queries)
	rep.note("setup_s", setupS.median(), "s", len(setupS))
	rep.note("peak_rss_mb", selfPeakRSSMB(), "MB", 1)
	rep.note("tune_s", tuneMS.median()/1000, "s", len(tuneMS))
	rep.note("tune_improvement_pct", imprs.mean(), "%", len(imprs))
	rep.note("tune_gap_pct", gaps.mean(), "%", len(gaps))
	rep.note("ingest_p50_ms (workload.Parse batch)", parseMS.median(), "ms", len(parseMS))
	rep.note("whatif_p50_ms (in-process)", whatifMS.median(), "ms", len(whatifMS))
	if whatifMS.tailOK(0.99) {
		rep.note("whatif_p99_ms (in-process)", whatifMS.quantile(0.99), "ms", len(whatifMS))
	}
	rep.note("error_rate", float64(rep.failed)/float64(rep.attempted), "ratio", int(rep.attempted))

	if !cfg.trace {
		rep.set("setup_s", "s", setupS.median())
		rep.set("peak_rss_mb", "MB", selfPeakRSSMB())
		rep.set("recommend_p50_ms", "ms", tuneMS.median())
		rep.set("whatif_p50_ms", "ms", whatifMS.median())
		rep.set("improvement_pct", "%", imprs.mean())
		return nil
	}

	overhead := 100 * (tuneMS.median()/untracedMS.median() - 1)
	layers := []struct {
		name, unit string
		v          float64
	}{
		{"cophy.candgen_ms", "ms", candgen.mean()},
		{"cophy.build_ms", "ms", build.mean()},
		{"cophy.candidates", "count", cands.mean()},
		{"inum.prepare_ms", "ms", prepare.mean()},
		{"inum.plan_cache_hit_ratio", "ratio", hitRatio.mean()},
		{"engine.whatif_calls", "count", whatIfs.mean()},
		{"cophy.solve_ms", "ms", solve.mean()},
		{"lagrange.iters", "count", iters.mean()},
		{"lagrange.gap_pct", "%", gaps.mean()},
		{"bip.nodes", "count", nodes.mean()},
		{"lp.solve_ms", "ms", lpMS.mean()},
		{"process.cpu_ms_per_op", "ms", cpuMS.median()},
		{"workload.parse_ms", "ms", parseMS.mean()},
		{"workload.live_statements", "count", float64(spec.queries)},
		{"trace.overhead_pct", "%", overhead},
	}
	fmt.Println("per-layer (traced run, mean per session):")
	for _, l := range layers {
		rep.note(l.name, l.v, l.unit, len(tuneMS))
		rep.set(l.name, l.unit, l.v)
	}
	// The tune workloads run no daemon: no WAL, no HTTP, no admission
	// queue. Those layers did no work here.
	for _, name := range serverOnlyLayers {
		rep.set(name.name, name.unit, 0)
	}
	return nil
}

// serverOnlyLayers are the per-layer metrics only the serve workloads
// exercise (the daemon's WAL, admission queue and HTTP front end); the
// tune workloads report them as zero work.
var serverOnlyLayers = []struct{ name, unit string }{
	{"persist.wal_append_ms.ingest", "ms"},
	{"persist.wal_append_ms.recommend", "ms"},
	{"persist.wal_bytes_per_ingest_byte", "ratio"},
	{"server.queue_wait_ms", "ms"},
	{"server.ingest_call_ms", "ms"},
	{"server.whatif_call_ms", "ms"},
	{"server.recommend_call_ms", "ms"},
	{"server.coalesced", "count"},
	{"server.shed", "count"},
	{"server.new_conns", "count"},
	{"http.ingest_p50_ms", "ms"},
	{"http.recommend_p90_ms", "ms"},
	{"http.ingest_p90_ms", "ms"},
	{"http.whatif_p90_ms", "ms"},
	{"http.throughput_ops", "ops/s"},
}
