package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/evidence"
	"repro/internal/obs"
	"repro/surveyor"
)

// epochDocs is the size of one trickle-query epoch, and cycleEpochs the
// number of epochs before the miner starts over.
const (
	epochDocs   = 200
	cycleEpochs = 50
)

// runner drives one workload: timed units, the closed-loop query client
// after each unit, and the output checks.
type runner struct {
	workload string
	in       *inputs
	sys      *surveyor.System
	cfg      surveyor.Config
	chk      *checker
	seconds  time.Duration
	nproc    int
	// tr is non-nil in the traced run; every second round records spans.
	tr *tracer
	m  *meter

	plain, traced   []unitSample
	plainQueryUS    []float64
	tracedQueryUS   []float64
	attempted       int
	failed          int
	lastUnitFailed  bool
	knownFaults     int
	errs            []error
	answersPerMix   int
	shardFailures   int
	refHash         [32]byte
	refStatements   int64
	shardJobs       []*dist.Job
	shardStores     []*evidence.Store
	distOpts        surveyor.DistributedOptions
	epochFixedMS    []float64
	epochDirty      []float64
	epochRefit      []float64
	epochRefitTuple []float64
}

// unitFn runs one timed unit and returns the published result and the
// number of documents it took in.
type unitFn func(tr *tracer) (*surveyor.Result, int, error)

// loop runs rounds until the run length is spent. A traced run alternates
// untraced and traced rounds, so both medians come from the same process.
func (r *runner) loop(round func(traced bool)) {
	minRounds := 1
	if r.tr != nil {
		minRounds = 2
	}
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < r.seconds; i++ {
		round(r.tr != nil && i%2 == 1)
	}
}

// round times one unit, runs the query mix against its result, and checks
// both. extra adds workload-specific checks.
func (r *runner) round(traced bool, name string, fn unitFn, docsFed int, extra func(view) []error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	p := r.m.begin()
	root := tr.beginUnit(name)
	res, docs, err := fn(tr)
	tr.end(root)
	s := r.m.end(p, docs)
	if traced {
		r.traced = append(r.traced, s)
	} else {
		r.plain = append(r.plain, s)
	}

	r.attempted++
	if res == nil {
		r.unitFailed([]error{fmt.Errorf("%s: no result: %v", name, err)})
		r.attempted += len(r.in.queries)
		r.failed += len(r.in.queries)
		return
	}
	ck := tr.begin("check")
	v := viewOf(res)
	errs := r.chk.checkResult(v, docsFed)
	if err != nil {
		errs = append(errs, err)
	}
	if extra != nil {
		errs = append(errs, extra(v)...)
	}
	tr.end(ck)
	r.lastUnitFailed = false
	if len(errs) > 0 {
		r.unitFailed(errs)
	}
	r.queryMix(tr, res, v, traced)
}

func (r *runner) unitFailed(errs []error) {
	r.failed++
	r.lastUnitFailed = true
	r.errs = append(r.errs, errs...)
}

// finalFailed charges run-end check failures to the last unit, so the
// failed share of attempted operations does not depend on run length.
func (r *runner) finalFailed(errs []error) {
	if len(errs) == 0 {
		return
	}
	if !r.lastUnitFailed {
		r.failed++
		r.lastUnitFailed = true
	}
	r.errs = append(r.errs, errs...)
}

// isKnownFault reports the one failure every run has today: Query of
// "pretty celebrities" or its negation fails to parse, because the parser
// reads "pretty" as a degree adverb. Any other failure of that query, such
// as a wrong answer once it parses, is an ordinary check failure.
func isKnownFault(q queryItem, queryErr error) bool {
	return q.property == "pretty" && q.typ == "celebrity" && queryErr != nil &&
		strings.Contains(queryErr.Error(), "no adjective before the type noun")
}

// queryMix is the closed-loop client: every query of the mix once, in
// the seeded order, each answer checked against brute force. Failed
// queries are counted and left out of the latency samples.
func (r *runner) queryMix(tr *tracer, res *surveyor.Result, v view, traced bool) {
	mix := tr.begin("query.mix")
	answers := 0
	for _, q := range r.in.queries {
		s := tr.begin("surveyor.Query")
		t0 := time.Now()
		got, err := res.Query(q.text)
		d := time.Since(t0)
		tr.end(s)
		r.attempted++
		if isKnownFault(q, err) {
			r.failed++
			r.knownFaults++
			continue
		}
		if err == nil {
			err = checkAnswers(v, q, got)
		}
		if err != nil {
			r.failed++
			r.errs = append(r.errs, err)
			continue
		}
		answers += len(got)
		us := float64(d.Nanoseconds()) / 1e3
		if traced {
			r.tracedQueryUS = append(r.tracedQueryUS, us)
		} else {
			r.plainQueryUS = append(r.plainQueryUS, us)
		}
	}
	r.answersPerMix = answers
	tr.end(mix)
}

// reference mines the whole corpus once, untimed, with the batch entry
// point: every full pass must render byte-identically to it, and the
// stage replay must extract as many statements.
func (r *runner) reference() {
	v := viewOf(r.sys.Mine(r.in.docs, r.cfg))
	mined, majority := r.chk.precision(v)
	fmt.Fprintf(os.Stderr, "reference: %d documents, precision %.3f (majority vote %.3f)\n",
		v.stats.Documents, mined, majority)
	r.finalFailed(r.chk.checkResult(v, len(r.in.docs)))
	r.refHash = renderHash(v)
	r.refStatements = v.stats.Statements
}

func (r *runner) sameAsReference(v view) []error {
	if renderHash(v) != r.refHash {
		return []error{fmt.Errorf("render: result differs from the batch Mine of the same documents")}
	}
	return nil
}

// batch: read the corpus file, decode it with corpus.Iterator, Mine with
// nproc workers and no telemetry — the CLI's default -in path.
func (r *runner) batch() {
	n := len(r.in.docs)
	r.loop(func(traced bool) {
		r.round(traced, "pass", func(tr *tracer) (*surveyor.Result, int, error) {
			s := tr.begin("corpus.read_decode")
			docs, err := readCorpus(r.in.path, n)
			tr.end(s)
			if err != nil {
				return nil, 0, err
			}
			s = tr.begin("surveyor.Mine")
			res := r.sys.Mine(docs, r.cfg)
			tr.end(s)
			return res, len(docs), nil
		}, n, r.sameAsReference)
	})
}

// streamObs: the same file through MineJSONL with a live telemetry sink,
// as -stream -report sets up.
func (r *runner) streamObs() {
	n := len(r.in.docs)
	r.loop(func(traced bool) {
		r.round(traced, "pass", func(tr *tracer) (*surveyor.Result, int, error) {
			cfg := r.cfg
			cfg.Obs = obs.New()
			cfg.Obs.RegisterBuildInfo()
			f, err := os.Open(r.in.path)
			if err != nil {
				return nil, 0, err
			}
			defer f.Close()
			s := tr.begin("surveyor.MineJSONL")
			res, err := r.sys.MineJSONL(context.Background(), f, surveyor.StreamOptions{}, cfg)
			tr.end(s)
			return res, n, err
		}, n, r.sameAsReference)
	})
}

// distOptions forks nproc workers, each this binary re-executed into
// ServeWorker with one extraction thread, so the children together keep
// nproc threads busy.
func (r *runner) distOptions() (surveyor.DistributedOptions, error) {
	exe, err := os.Executable()
	if err != nil {
		return surveyor.DistributedOptions{}, err
	}
	return surveyor.DistributedOptions{
		Workers: r.nproc,
		Command: []string{exe, "-worker"},
		Stderr:  os.Stderr,
	}, nil
}

// distribute: MineDistributed over the in-memory corpus with forked
// workers.
func (r *runner) distribute() {
	n := len(r.in.docs)
	r.loop(func(traced bool) {
		r.round(traced, "pass", func(tr *tracer) (*surveyor.Result, int, error) {
			s := tr.begin("surveyor.MineDistributed")
			res, failures, err := r.sys.MineDistributed(context.Background(), r.in.docs, r.distOpts, r.cfg)
			tr.end(s)
			r.shardFailures += len(failures)
			if err == nil && len(failures) > 0 {
				err = fmt.Errorf("distribute: %d shards lost: %v", len(failures), failures[0].Err)
			}
			return res, n, err
		}, n, r.sameAsReference)
	})
	r.finalFailed(r.checkShards())
}

// trickleQuery: an untimed base epoch of a quarter of the corpus, then
// cycleEpochs epochs of epochDocs in-memory documents, each followed by the
// query mix against the new snapshot; then the miner starts over from a
// fresh base epoch. Epoch cost grows as the cumulative state grows, so
// every cycle replays the same documents: a run's epochs then cover the
// same positions in the cycle however fast the machine runs it.
func (r *runner) trickleQuery() {
	docs := r.in.docs
	baseN := len(docs) / 4
	epochs := min(cycleEpochs, (len(docs)-baseN)/epochDocs)
	var m *surveyor.IncrementalMiner
	var next int
	var statements int64
	var cycleHash [32]byte
	restart := func() {
		m = r.sys.MineIncremental(r.cfg)
		st, err := m.Epoch(context.Background(), docs[:baseN])
		if err != nil {
			r.finalFailed([]error{fmt.Errorf("base epoch: %w", err)})
		}
		next, statements = baseN, st.Statements
	}
	restart()
	r.loop(func(traced bool) {
		if next == baseN+epochs*epochDocs {
			// The first completed cycle is checked against batch Mine; the
			// later ones, which replay the same epochs, against the first.
			if h := renderHash(viewOf(m.Snapshot())); cycleHash == ([32]byte{}) {
				r.finalFailed(r.checkCycle(m, next))
				cycleHash = h
			} else if h != cycleHash {
				r.finalFailed([]error{fmt.Errorf("render: cycle snapshot differs from the first cycle's")})
			}
			restart()
		}
		lo, hi := next, next+epochDocs
		var st surveyor.EpochStats
		r.round(traced, "epoch", func(tr *tracer) (*surveyor.Result, int, error) {
			s := tr.begin("surveyor.Epoch")
			var err error
			st, err = m.Epoch(context.Background(), docs[lo:hi])
			tr.end(s)
			s = tr.begin("surveyor.Snapshot")
			snap := m.Snapshot()
			tr.end(s)
			return snap, st.Documents, err
		}, hi, func(v view) []error {
			statements += st.Statements
			if statements != v.stats.Statements {
				return []error{fmt.Errorf("epochs: statement sums %d, snapshot reports %d", statements, v.stats.Statements)}
			}
			return nil
		})
		next = hi
		if traced {
			r.epochDirty = append(r.epochDirty, float64(st.DirtyGroups))
			r.epochRefit = append(r.epochRefit, float64(st.RefitGroups))
			r.epochRefitTuple = append(r.epochRefitTuple, float64(st.RefitTuples))
			r.epochFixedMS = append(r.epochFixedMS, ms(r.traced[len(r.traced)-1].wall)-r.replayExtractMS(lo, hi))
		}
	})
	r.finalFailed(r.checkCycle(m, next))
}

// checkCycle: the incremental snapshot over docs[:fed] renders
// byte-identically to an untimed batch Mine of the same documents.
func (r *runner) checkCycle(m *surveyor.IncrementalMiner, fed int) []error {
	want := renderHash(viewOf(r.sys.Mine(r.in.docs[:fed], r.cfg)))
	if renderHash(viewOf(m.Snapshot())) != want {
		return []error{fmt.Errorf("render: incremental snapshot over %d documents differs from batch Mine", fed)}
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }
