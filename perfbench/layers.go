package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dist"
	"repro/internal/evidence"
	"repro/internal/extract"
	"repro/internal/kb"
	"repro/internal/nlp/depparse"
	"repro/internal/nlp/lexicon"
	"repro/internal/nlp/pos"
	"repro/internal/nlp/token"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/tagger"
	"repro/internal/wire"
	"repro/surveyor"
)

// Replays call the layer packages directly, on the workload's documents,
// after the timed rounds of a traced run. Each replay repeats its timed
// section replayReps times and reports the median.
const (
	replayReps = 3
	// allocDocs bounds the documents of the per-stage allocation replay.
	allocDocs = 2000
	// stagePairs is the number of stage-replay passes, each paired with a
	// one-worker pipeline extraction.
	stagePairs = 5
)

// timeMedian runs fn reps times, each after a settled GC, and returns the
// median duration in ms.
func timeMedian(reps int, fn func()) float64 {
	var xs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		fn()
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// layerMetrics runs the replays for the layers the workload exercises and
// returns every per-layer metric; layers the workload does not run read 0.
func (r *runner) layerMetrics() map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	tr := r.tr
	docs := r.in.snap.Documents
	pcfg := pipeline.Config{Workers: r.nproc, Rho: r.in.rho}
	ctx := context.Background()

	s := tr.beginUnit("replay.kb")
	out["kb.build_ms"] = timeMedian(replayReps, func() { kb.Default(kbSeed) })
	out["kb.register_ms"] = timeMedian(replayReps, func() { r.in.base.RegisterLexicon(lexicon.Default()) })
	tr.end(s)

	if r.workload == "batch" || r.workload == "stream-obs" {
		s = tr.beginUnit("replay.corpus")
		n := 0
		decodeMS := timeMedian(replayReps, func() {
			d, err := readCorpus(r.in.path, len(docs))
			if err != nil {
				r.finalFailed([]error{err})
			}
			n = len(d)
		})
		tr.end(s)
		out["corpus.decode_ms"] = decodeMS
		out["corpus.decode_mb_per_s"] = float64(r.in.fileBytes) / 1e6 / (decodeMS / 1e3)
		out["corpus.docs"] = float64(n)
	}

	// Every workload extracts the whole corpus (trickle-query across its
	// epochs, distribute in its workers), so all replay the NLP stages.
	s = tr.beginUnit("replay.stages")
	st := r.replayStages(tr, docs)
	tr.end(s)
	for k, v := range st.metrics {
		out[k] = v
	}
	if want := r.refStatements; st.statements != want {
		r.finalFailed([]error{fmt.Errorf("stage replay: %d statements, result has %d", st.statements, want)})
	}

	s = tr.beginUnit("replay.pipeline")
	nW := timeMedian(replayReps, func() { pipeline.ExtractEvidence(ctx, docs, r.in.base, r.in.lex, pcfg, 0) })
	tr.end(s)
	out["pipeline.extract_1w_ms"] = st.oneWorkerMS
	out["pipeline.extract_nw_ms"] = nW
	out["pipeline.residual_ms"] = st.residualMS
	out["pipeline.scaling"] = st.oneWorkerMS / nW
	ext := st.ext

	s = tr.beginUnit("replay.evidence")
	out["evidence.add_ms"] = timeMedian(replayReps, func() {
		local := evidence.NewLocal()
		for _, x := range st.all {
			local.Add(x)
		}
		local.FlushTo(evidence.NewStore())
	})
	var groups []evidence.Group
	var before int
	out["evidence.group_ms"] = timeMedian(replayReps, func() {
		groups, before = evidence.ParallelGroupObserved(ext.Store, r.in.base, r.in.rho, r.nproc, nil)
	})
	out["evidence.pairs"] = float64(ext.Store.Len())
	out["evidence.groups_before_rho"] = float64(before)
	out["evidence.groups_kept"] = float64(len(groups))
	tr.end(s)

	s = tr.beginUnit("replay.core")
	iters, tuples := 0, 0
	out["core.em_ms"] = timeMedian(replayReps, func() {
		iters, tuples = 0, 0
		for _, g := range groups {
			ts := make([]core.Tuple, len(g.Entities))
			for i, e := range g.Entities {
				ts[i] = core.Tuple{Pos: int(e.Pos), Neg: int(e.Neg)}
			}
			_, trace := core.FitEM(ts, core.DefaultEMConfig())
			iters += trace.Iterations
			tuples += len(ts)
		}
	})
	out["core.em_iterations"] = float64(iters)
	out["core.tuples"] = float64(tuples)
	tr.end(s)

	switch r.workload {
	case "trickle-query":
		s = tr.beginUnit("replay.incremental")
		out["evidence.merge_ms"] = r.replayEpochMerges(docs)
		tr.end(s)
		out["incremental.dirty_groups"] = median(r.epochDirty)
		out["incremental.refit_groups"] = median(r.epochRefit)
		out["incremental.refit_tuples"] = median(r.epochRefitTuple)
		out["incremental.fixed_ms"] = median(r.epochFixedMS)
	case "distribute":
		s = tr.beginUnit("replay.wire")
		for k, v := range r.replayWire(docs) {
			out[k] = v
		}
		tr.end(s)
		s = tr.beginUnit("replay.dist")
		out["dist.empty_run_ms"] = timeMedian(replayReps, func() {
			if _, _, err := r.sys.MineDistributed(ctx, nil, r.distOpts, r.cfg); err != nil {
				r.finalFailed([]error{fmt.Errorf("empty distributed run: %w", err)})
			}
		})
		tr.end(s)
		var child []float64
		for _, u := range append(append([]unitSample(nil), r.plain...), r.traced...) {
			child = append(child, ms(u.childCPU))
		}
		out["dist.child_cpu_ms"] = median(child)
		out["dist.shard_failures"] = float64(r.shardFailures)
	case "stream-obs":
		s = tr.beginUnit("replay.obs")
		out["obs.overhead_pct"] = r.replayObsOverhead()
		tr.end(s)
	}

	s = tr.beginUnit("replay.query")
	for k, v := range r.replayQuery(docs) {
		out[k] = v
	}
	tr.end(s)

	// GC cycles are rare within a 200-document epoch, so their rate is
	// taken over all untraced units rather than as a per-unit median.
	var cycles, docsN float64
	var pause []float64
	for _, u := range r.plain {
		cycles += float64(u.gcCycles)
		docsN += float64(u.docs)
		pause = append(pause, ms(u.gcPause))
	}
	out["gc.cycles_per_kdoc"] = cycles / (docsN / 1000)
	out["gc.pause_ms"] = median(pause)
	plain := endToEnd(r.plain, nil)["docs_per_s"]
	traced := endToEnd(r.traced, nil)["docs_per_s"]
	out["trace.overhead_pct"] = (plain - traced) / plain * 100
	for k, v := range out {
		out[k] = finite(v)
	}
	return out
}

// stageReplay is the outcome of replaying the per-document NLP stages
// against the pipeline's own one-worker extraction.
type stageReplay struct {
	metrics     map[string]float64
	oneWorkerMS float64 // pipeline.ExtractEvidence with one worker
	residualMS  float64 // one-worker extraction minus the stage times
	statements  int64
	all         []extract.Statement
	ext         *pipeline.Extraction
}

// nlpStages are the per-document NLP components, built as the pipeline
// builds them.
type nlpStages struct {
	pos    *pos.Tagger
	parser *depparse.Parser
	ent    *tagger.Tagger
	ext    *extract.Extractor
}

func newStages(base *kb.KB, lex *lexicon.Lexicon) nlpStages {
	return nlpStages{pos.New(lex), depparse.New(lex), tagger.New(base, lex), extract.NewVersion(lex, extract.V4)}
}

// stage indices of the replay, in the pipeline's order.
const (
	stToken = iota
	stPOS
	stTagger
	stParse
	stExtract
	nStages
)

// replayStages runs tokenize+sentence split, POS, entity tagging, parsing
// and extraction over docs on one thread, in the pipeline's order, with
// each stage's scratch API, timing each stage separately. Each stage's
// time is the median over stagePairs passes, less the cost the clock
// readings add to every measured interval. Every pass is paired with a
// one-worker pipeline.ExtractEvidence of the same documents, run after it
// in even pairs and before it in odd ones, and the residual is the median
// of the pairs' differences, so a machine that slows down between passes
// moves both sides of a pair and a steady drift cancels.
func (r *runner) replayStages(tr *tracer, docs []corpus.Document) stageReplay {
	nlp := newStages(r.in.base, r.in.lex)
	per := make([][]float64, nStages)
	var out stageReplay
	var p stagePass
	var oneW, resid []float64
	s := tr.begin("replay.stages.timed")
	for rep := 0; rep < stagePairs; rep++ {
		var w float64
		oneWorker := func() {
			runtime.GC()
			t0 := time.Now()
			out.ext, _ = pipeline.ExtractEvidence(context.Background(), docs, r.in.base, r.in.lex,
				pipeline.Config{Workers: 1, Rho: r.in.rho}, 0)
			w = ms(time.Since(t0))
		}
		if rep%2 == 1 {
			oneWorker()
		}
		runtime.GC()
		p = nlp.timedPass(docs, rep == 0)
		if rep == 0 {
			out.all = p.statements
		}
		c := clockCost()
		sum := 0.0
		for st := 0; st < nStages; st++ {
			d := ms(p.d[st] - time.Duration(p.intervals[st])*c)
			per[st] = append(per[st], d)
			sum += d
		}
		if rep%2 == 0 {
			oneWorker()
		}
		oneW = append(oneW, w)
		resid = append(resid, w-sum)
	}
	tr.end(s)
	out.statements = int64(len(out.all))
	out.oneWorkerMS, out.residualMS = median(oneW), median(resid)
	stage := make([]float64, nStages)
	for st := range stage {
		stage[st] = median(per[st])
	}

	s = tr.begin("replay.stages.alloc")
	alloc := stageAllocs(nlp, docs[:min(len(docs), allocDocs)])
	tr.end(s)
	out.metrics = map[string]float64{
		"token.ms":                      stage[stToken],
		"token.tokens":                  float64(p.tokens),
		"token.alloc_b_per_sentence":    alloc["token"],
		"pos.ms":                        stage[stPOS],
		"pos.alloc_b_per_sentence":      alloc["pos"],
		"tagger.ms":                     stage[stTagger],
		"tagger.mentions":               float64(p.mentions),
		"tagger.alloc_b_per_sentence":   alloc["tagger"],
		"depparse.ms":                   stage[stParse],
		"depparse.sentences":            float64(p.intervals[stParse]),
		"depparse.alloc_b_per_sentence": alloc["depparse"],
		"extract.ms":                    stage[stExtract],
		"extract.statements":            float64(out.statements),
		"extract.alloc_b_per_sentence":  alloc["extract"],
	}
	return out
}

// stagePass is one timed replay over the documents.
type stagePass struct {
	d          [nStages]time.Duration
	intervals  [nStages]int // measured intervals per stage
	tokens     int
	mentions   int
	statements []extract.Statement // kept only when asked for
}

func (nlp nlpStages) timedPass(docs []corpus.Document, keep bool) stagePass {
	var (
		sents    []token.Sentence
		toks     []token.Token
		tagged   []pos.Tagged
		mentions []tagger.Mention
		stmts    []extract.Statement
		psc      depparse.Scratch
		tsc      tagger.Scratch
		p        stagePass
	)
	for i := range docs {
		t0 := time.Now()
		sents, toks = token.SplitSentencesInto(sents[:0], toks[:0], docs[i].Text)
		t1 := time.Now()
		p.d[stToken] += t1.Sub(t0)
		p.intervals[stToken]++
		p.tokens += len(toks)
		for _, sent := range sents {
			a := time.Now()
			tagged = nlp.pos.TagInto(tagged[:0], sent)
			b := time.Now()
			mentions = nlp.ent.TagInto(mentions[:0], &tsc, tagged)
			c := time.Now()
			p.d[stPOS] += b.Sub(a)
			p.d[stTagger] += c.Sub(b)
			p.intervals[stPOS]++
			p.intervals[stTagger]++
			p.mentions += len(mentions)
			if len(mentions) == 0 {
				continue
			}
			tree := nlp.parser.ParseInto(&psc, tagged)
			d := time.Now()
			stmts = nlp.ext.ExtractInto(stmts[:0], tree, mentions)
			e := time.Now()
			p.d[stParse] += d.Sub(c)
			p.d[stExtract] += e.Sub(d)
			p.intervals[stParse]++
			p.intervals[stExtract]++
			if keep {
				p.statements = append(p.statements, stmts...)
			}
		}
	}
	return p
}

// clockCost is what one clock reading adds to a measured interval: the
// median, over batches, of the mean gap between back-to-back readings.
func clockCost() time.Duration {
	const batch = 1000
	var xs []float64
	for i := 0; i < 51; i++ {
		var sum time.Duration
		for j := 0; j < batch; j++ {
			a := time.Now()
			sum += time.Since(a)
		}
		xs = append(xs, float64(sum)/batch)
	}
	return time.Duration(median(xs))
}

// stageAllocs measures each stage's steady-state heap allocation per
// sentence it processes. Stages run one at a time over inputs prepared by
// the earlier stages, so runtime.ReadMemStats (which flushes the
// allocation caches) brackets exactly one stage. Each loop runs once to
// warm its scratch buffers before the measured run.
func stageAllocs(nlp nlpStages, docs []corpus.Document) map[string]float64 {
	var sents []token.Sentence
	var taggedAll [][]pos.Tagged
	type parseIn struct {
		tagged   []pos.Tagged
		mentions []tagger.Mention
	}
	var parseAll []parseIn
	var tsc tagger.Scratch
	for i := range docs {
		ss, _ := token.SplitSentencesInto(nil, nil, docs[i].Text)
		for _, sent := range ss {
			sents = append(sents, sent)
			tg := nlp.pos.TagInto(nil, sent)
			taggedAll = append(taggedAll, tg)
			if m := nlp.ent.TagInto(nil, &tsc, tg); len(m) > 0 {
				parseAll = append(parseAll, parseIn{tg, m})
			}
		}
	}
	measure := func(fn func()) uint64 {
		fn()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	var (
		ssc  []token.Sentence
		toks []token.Token
		tg   []pos.Tagged
		men  []tagger.Mention
		st   []extract.Statement
		psc  depparse.Scratch
	)
	tokB := measure(func() {
		for i := range docs {
			ssc, toks = token.SplitSentencesInto(ssc[:0], toks[:0], docs[i].Text)
		}
	})
	posB := measure(func() {
		for _, s := range sents {
			tg = nlp.pos.TagInto(tg[:0], s)
		}
	})
	tagB := measure(func() {
		for _, t := range taggedAll {
			men = nlp.ent.TagInto(men[:0], &tsc, t)
		}
	})
	parseB := measure(func() {
		for _, p := range parseAll {
			nlp.parser.ParseInto(&psc, p.tagged)
		}
	})
	bothB := measure(func() {
		for _, p := range parseAll {
			st = nlp.ext.ExtractInto(st[:0], nlp.parser.ParseInto(&psc, p.tagged), p.mentions)
		}
	})
	per := func(b uint64, n int) float64 { return float64(b) / float64(max(n, 1)) }
	extB := float64(bothB) - float64(parseB)
	return map[string]float64{
		"token":    per(tokB, len(sents)),
		"pos":      per(posB, len(sents)),
		"tagger":   per(tagB, len(taggedAll)),
		"depparse": per(parseB, len(parseAll)),
		"extract":  max(extB, 0) / float64(max(len(parseAll), 1)),
	}
}

// replayExtractMS times the extraction of one epoch's documents alone,
// with the miner's worker count.
func (r *runner) replayExtractMS(lo, hi int) float64 {
	runtime.GC()
	t0 := time.Now()
	pipeline.ExtractEvidence(context.Background(), r.in.snap.Documents[lo:hi], r.in.base, r.in.lex,
		pipeline.Config{Workers: r.nproc, Rho: r.in.rho}, lo)
	return ms(time.Since(t0))
}

// replayEpochMerges times Store.Merge of epoch deltas into a cumulative
// store holding the base epoch, as the incremental miner merges them.
func (r *runner) replayEpochMerges(docs []corpus.Document) float64 {
	ctx := context.Background()
	cfg := pipeline.Config{Workers: r.nproc, Rho: r.in.rho}
	baseN := len(docs) / 4
	cum, _ := pipeline.ExtractEvidence(ctx, docs[:baseN], r.in.base, r.in.lex, cfg, 0)
	var xs []float64
	for lo := baseN; lo+epochDocs <= len(docs) && len(xs) < 20; lo += epochDocs {
		delta, _ := pipeline.ExtractEvidence(ctx, docs[lo:lo+epochDocs], r.in.base, r.in.lex, cfg, lo)
		t0 := time.Now()
		cum.Store.Merge(delta.Store)
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// checkShards extracts each distribute shard as its worker does, keeps the
// jobs and stores for replayWire, and checks every store's wire round trip.
func (r *runner) checkShards() []error {
	docs := r.in.snap.Documents
	n := len(docs)
	var errs []error
	for s := 0; s < r.nproc; s++ {
		lo, hi := n*s/r.nproc, n*(s+1)/r.nproc
		ext, err := pipeline.ExtractEvidence(context.Background(), docs[lo:hi], r.in.base, r.in.lex,
			pipeline.Config{Workers: 1, Rho: r.in.rho}, lo)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		r.shardJobs = append(r.shardJobs, &dist.Job{Shard: s, DocOffset: lo, Docs: docs[lo:hi]})
		r.shardStores = append(r.shardStores, ext.Store)
		if err := checkWireRoundTrip(ext.Store); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// replayWire times the wire frames a distributed pass moves (job frames
// out, evidence stores back) and the shard-ordered Store.Merge.
func (r *runner) replayWire(docs []corpus.Document) map[string]float64 {
	n := len(docs)
	jobs, stores := r.shardJobs, r.shardStores
	var frames [][]byte
	var wireBytes int
	encode := timeMedian(replayReps, func() {
		frames, wireBytes = frames[:0], 0
		for i := range jobs {
			var jb, sb bytes.Buffer
			dist.WriteJob(&jb, jobs[i])
			wire.EncodeStore(&sb, stores[i])
			frames = append(frames, jb.Bytes(), sb.Bytes())
			wireBytes += jb.Len() + sb.Len()
		}
	})
	decode := timeMedian(replayReps, func() {
		for i := 0; i < len(frames); i += 2 {
			if _, _, err := dist.ReadJob(bytes.NewReader(frames[i])); err != nil {
				r.finalFailed([]error{err})
			}
			if _, _, err := wire.DecodeStore(bytes.NewReader(frames[i+1])); err != nil {
				r.finalFailed([]error{err})
			}
		}
	})
	merge := timeMedian(replayReps, func() {
		all := evidence.NewStore()
		for _, s := range stores {
			all.Merge(s)
		}
	})
	return map[string]float64{
		"wire.encode_ms":     encode,
		"wire.decode_ms":     decode,
		"wire.bytes_per_doc": float64(wireBytes) / float64(n),
		"evidence.merge_ms":  merge,
	}
}

// replayObsOverhead mines the first quarter of the corpus through
// MineJSONL with the telemetry sink off and on, in interleaved pairs
// (alternating which side runs first), and returns the median per-pair
// slowdown in percent.
func (r *runner) replayObsOverhead() float64 {
	data, err := readPrefixLines(r.in.path, len(r.in.docs)/4)
	if err != nil {
		r.finalFailed([]error{err})
		return 0
	}
	pass := func(on bool) float64 {
		cfg := r.cfg
		if on {
			cfg.Obs = obs.New()
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := r.sys.MineJSONL(context.Background(), bytes.NewReader(data), surveyor.StreamOptions{}, cfg); err != nil {
			r.finalFailed([]error{err})
		}
		return ms(time.Since(t0))
	}
	var pct []float64
	for i := 0; i < 4; i++ {
		var off, on float64
		if i%2 == 0 {
			off, on = pass(false), pass(true)
		} else {
			on, off = pass(true), pass(false)
		}
		pct = append(pct, (on/off-1)*100)
	}
	return median(pct)
}

// replayQuery times query.Parse and Engine.Execute over the mix against a
// pipeline result of the same documents; Result.Query's remaining cost is
// the engine set-up and the answer conversion.
func (r *runner) replayQuery(docs []corpus.Document) map[string]float64 {
	pres := pipeline.Run(docs, r.in.base, r.in.lex, pipeline.Config{Workers: r.nproc, Rho: r.in.rho})
	eng := query.NewEngine(r.in.base, r.in.lex, pres)
	var parseUS, execUS []float64
	for rep := 0; rep < 20; rep++ {
		for _, q := range r.in.queries {
			t0 := time.Now()
			pq, err := eng.Parse(q.text)
			parseUS = append(parseUS, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				continue
			}
			t0 = time.Now()
			eng.Execute(pq)
			execUS = append(execUS, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	all := append(append([]float64(nil), r.plainQueryUS...), r.tracedQueryUS...)
	_, p99 := tailQuantile(all)
	parse, exec := median(parseUS), median(execUS)
	return map[string]float64{
		"query.parse_us":   parse,
		"query.execute_us": exec,
		"query.engine_us":  median(r.plainQueryUS) - parse - exec,
		"query.p99_us":     p99,
		"query.answers":    float64(r.answersPerMix),
	}
}
