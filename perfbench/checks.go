package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/evidence"
	"repro/internal/kb"
	"repro/internal/wire"
	"repro/surveyor"
)

// precisionFloor is the lowest acceptable precision of decided opinions
// against the generator's latent truth over the Table-2 groups. Measured
// values sit near 0.85 at every seed tried, against about 0.45 for
// majority vote on the same counters.
const precisionFloor = 0.75

// view is the part of a result the checks read. It is plain data so the
// benchmark's tests can corrupt it.
type view struct {
	groups   []surveyor.GroupSummary
	evidence []surveyor.EvidenceCounts
	stats    surveyor.Stats
}

func viewOf(r *surveyor.Result) view {
	return view{groups: r.Groups(), evidence: r.Evidence(), stats: r.Stats()}
}

// checker holds the independent knowledge the checks compare against: the
// knowledge base, the generator's latent truth, and the Table-2 specs.
type checker struct {
	base  *kb.KB
	truth map[corpus.TruthKey]bool
	specs []corpus.Spec
}

func newChecker(in *inputs) *checker {
	return &checker{base: in.base, truth: in.snap.Truth, specs: in.specs}
}

// checkResult runs every check on one published result over docsFed
// documents and returns the failures.
func (c *checker) checkResult(v view, docsFed int) []error {
	var errs []error
	if v.stats.Documents != docsFed || v.stats.QuarantinedDocs != 0 || v.stats.SkippedLines != 0 {
		errs = append(errs, fmt.Errorf("documents: result has %d (quarantined %d, skipped %d), fed %d",
			v.stats.Documents, v.stats.QuarantinedDocs, v.stats.SkippedLines, docsFed))
	}
	var sum int64
	for _, e := range v.evidence {
		sum += e.Pos + e.Neg
	}
	if sum != v.stats.Statements {
		errs = append(errs, fmt.Errorf("evidence: counters sum to %d, stats report %d statements", sum, v.stats.Statements))
	}
	errs = append(errs, c.checkCoverage(v)...)
	errs = append(errs, checkProbabilities(v)...)
	if err := c.checkPrecision(v); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// checkCoverage: every modelled group classifies each entity of its type
// exactly once, zero-evidence entities included, and every Table-2 group
// is modelled.
func (c *checker) checkCoverage(v view) []error {
	var errs []error
	modelled := map[evidence.GroupKey]bool{}
	for _, g := range v.groups {
		modelled[evidence.GroupKey{Type: g.Type, Property: g.Property}] = true
		want := c.base.OfType(g.Type)
		seen := make(map[int]int, len(g.Entities))
		for _, e := range g.Entities {
			seen[e.EntityID]++
		}
		bad := len(seen) != len(want) || len(g.Entities) != len(want)
		for _, id := range want {
			if seen[int(id)] != 1 {
				bad = true
			}
		}
		if bad {
			errs = append(errs, fmt.Errorf("coverage: group %s/%s classifies %d entities (%d distinct), type has %d",
				g.Type, g.Property, len(g.Entities), len(seen), len(want)))
		}
	}
	for _, s := range c.specs {
		if !modelled[evidence.GroupKey{Type: s.Type, Property: s.Property}] {
			errs = append(errs, fmt.Errorf("coverage: Table-2 group %s/%s not modelled", s.Type, s.Property))
		}
	}
	return errs
}

// decisionEpsilon is the half-width of the undecided band around ½.
const decisionEpsilon = 1e-9

func decide(p float64) surveyor.Opinion {
	switch {
	case p > 0.5+decisionEpsilon:
		return surveyor.Positive
	case p < 0.5-decisionEpsilon:
		return surveyor.Negative
	}
	return surveyor.Unsolved
}

// checkProbabilities: every probability lies in [0, 1] and agrees with
// its decision.
func checkProbabilities(v view) []error {
	bad := 0
	var first error
	for _, g := range v.groups {
		for _, e := range g.Entities {
			if !(e.Probability >= 0 && e.Probability <= 1) || decide(e.Probability) != e.Opinion {
				bad++
				if first == nil {
					first = fmt.Errorf("probability: %s/%s %s has p=%v with opinion %v",
						g.Type, g.Property, e.Entity, e.Probability, e.Opinion)
				}
			}
		}
	}
	if bad > 0 {
		return []error{fmt.Errorf("%w (%d entities)", first, bad)}
	}
	return nil
}

// precision scores decided opinions of the Table-2 groups against the
// latent truth, for the mined opinions and for majority vote on the same
// counters.
func (c *checker) precision(v view) (mined, majority float64) {
	spec := map[evidence.GroupKey]bool{}
	for _, s := range c.specs {
		spec[evidence.GroupKey{Type: s.Type, Property: s.Property}] = true
	}
	var mDecided, mRight, vDecided, vRight int
	for _, g := range v.groups {
		if !spec[evidence.GroupKey{Type: g.Type, Property: g.Property}] {
			continue
		}
		for _, e := range g.Entities {
			truth, ok := c.truth[corpus.TruthKey{Entity: kb.EntityID(e.EntityID), Property: g.Property}]
			if !ok {
				continue
			}
			if e.Opinion != surveyor.Unsolved {
				mDecided++
				if (e.Opinion == surveyor.Positive) == truth {
					mRight++
				}
			}
			if mv := surveyor.MajorityVote(surveyor.Counts{Pos: int(e.Pos), Neg: int(e.Neg)}); mv != surveyor.Unsolved {
				vDecided++
				if (mv == surveyor.Positive) == truth {
					vRight++
				}
			}
		}
	}
	return ratio(mRight, mDecided), ratio(vRight, vDecided)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c *checker) checkPrecision(v view) error {
	mined, majority := c.precision(v)
	if mined < precisionFloor || mined <= majority {
		return fmt.Errorf("precision: mined %.3f (floor %.2f), majority vote %.3f", mined, precisionFloor, majority)
	}
	return nil
}

// render is a canonical text form of a result: every group, fit and
// classification at full float precision plus the schedule-independent
// statistics. Two results are the same answer exactly when their renders
// are byte-identical.
func render(v view) []byte {
	var b bytes.Buffer
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	s := v.stats
	fmt.Fprintf(&b, "docs=%d sentences=%d statements=%d pairs=%d before=%d groups=%d opinions=%d q=%d skipped=%d\n",
		s.Documents, s.Sentences, s.Statements, s.DistinctPairs, s.PairsBeforeFilter,
		s.ModelledGroups, s.OpinionsProduced, s.QuarantinedDocs, s.SkippedLines)
	for _, g := range v.groups {
		fmt.Fprintf(&b, "%s/%s pA=%s np+=%s np-=%s\n", g.Type, g.Property, f(g.PA), f(g.NpPlus), f(g.NpMinus))
		for _, e := range g.Entities {
			fmt.Fprintf(&b, " %d %s +%d -%d p=%s %v\n", e.EntityID, e.Entity, e.Pos, e.Neg, f(e.Probability), e.Opinion)
		}
	}
	for _, e := range v.evidence {
		fmt.Fprintf(&b, "e %s/%s +%d -%d\n", e.Entity, e.Property, e.Pos, e.Neg)
	}
	return b.Bytes()
}

func renderHash(v view) [32]byte { return sha256.Sum256(render(v)) }

// expectedAnswers is the brute-force answer to q over v's groups: the
// entities whose (possibly negated) probability decides positive, ranked
// by probability, then net evidence, then name. ok is false when the
// group is not modelled.
func expectedAnswers(v view, q queryItem) (out []surveyor.QueryAnswer, ok bool) {
	for _, g := range v.groups {
		if g.Type != q.typ || g.Property != q.property {
			continue
		}
		ok = true
		for _, e := range g.Entities {
			p := e.Probability
			if q.negated {
				p = 1 - p
			}
			if decide(p) == surveyor.Positive {
				out = append(out, surveyor.QueryAnswer{Entity: e.Entity, Probability: p, Pos: e.Pos, Neg: e.Neg})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Probability != out[b].Probability {
			return out[a].Probability > out[b].Probability
		}
		if na, nb := out[a].Pos-out[a].Neg, out[b].Pos-out[b].Neg; na != nb {
			return na > nb
		}
		return out[a].Entity < out[b].Entity
	})
	return out, ok
}

// checkAnswers compares a query's answers with the brute-force ones.
func checkAnswers(v view, q queryItem, got []surveyor.QueryAnswer) error {
	want, ok := expectedAnswers(v, q)
	if !ok {
		return fmt.Errorf("query %q: group not modelled", q.text)
	}
	if len(got) != len(want) {
		return fmt.Errorf("query %q: %d answers, brute force has %d", q.text, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("query %q: answer %d is %+v, brute force has %+v", q.text, i, got[i], want[i])
		}
	}
	return nil
}

// checkWireRoundTrip: a shard store survives wire encode then decode
// entry for entry.
func checkWireRoundTrip(s *evidence.Store) error {
	var buf bytes.Buffer
	if _, err := wire.EncodeStore(&buf, s); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	got, _, err := wire.DecodeStore(&buf)
	if err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return sameEntries(s.Snapshot(), got.Snapshot())
}

func sameEntries(want, got []evidence.Entry) error {
	if len(want) != len(got) {
		return fmt.Errorf("wire: %d entries decoded, %d encoded", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("wire: entry %d decoded as %+v, encoded %+v", i, got[i], want[i])
		}
	}
	return nil
}
