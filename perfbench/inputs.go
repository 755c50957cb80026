package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/nlp/lexicon"
	"repro/surveyor"
)

// kbSeed fixes the built-in knowledge base: it is the configuration of the
// system under test, while the workload seed drives the corpus and the
// query order. The knowledge-base seed moves corpus volume by ±10% (its
// long-tail popularity drives statement counts); with it fixed, seeds
// move the corpus size by well under 1%.
const kbSeed = 9

// rhoFor scales the occurrence threshold with the corpus: the paper's 100
// at scale 20. That keeps all 25 Table-2 groups modelled from the first
// quarter of the corpus on, for every seed tried, so the query mix is the
// same on every workload.
func rhoFor(scale float64) int64 { return max(1, int64(5*scale+0.5)) }

// queryItem is one query of the mix and the group it asks about.
type queryItem struct {
	text     string
	typ      string
	property string
	negated  bool
}

// inputs is everything a run derives from its seed before timing starts.
type inputs struct {
	seed uint64
	rho  int64
	// base and lex mirror the System's knowledge base and registered
	// lexicon; the checks and layer replays use them directly.
	base *kb.KB
	lex  *lexicon.Lexicon
	snap *corpus.Snapshot
	// docs is the corpus in the public API's form; snap.Documents holds
	// the same documents in the layer packages' form.
	docs      []surveyor.Document
	path      string // the corpus as a JSONL file
	fileBytes int64
	specs     []corpus.Spec
	queries   []queryItem
}

// buildInputs generates the eval world (Table-2 specs over the built-in
// knowledge base) at the given scale, writes it to dir/corpus.jsonl, and
// derives the seeded query mix.
func buildInputs(seed uint64, scale float64, dir string) (*inputs, error) {
	in := &inputs{seed: seed, rho: rhoFor(scale), base: kb.Default(kbSeed), lex: lexicon.Default(), specs: corpus.Table2Specs()}
	in.snap = corpus.NewGenerator(kb.Default(kbSeed), in.specs, corpus.Config{Seed: seed, Scale: scale}).Generate()
	in.base.RegisterLexicon(in.lex)
	in.docs = make([]surveyor.Document, len(in.snap.Documents))
	for i, d := range in.snap.Documents {
		in.docs[i] = surveyor.Document{URL: d.URL, Domain: d.Domain, Text: d.Text}
	}

	in.path = filepath.Join(dir, "corpus.jsonl")
	f, err := os.Create(in.path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	if err := corpus.WriteJSONL(bw, in.snap.Documents); err != nil {
		f.Close()
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	st, err := os.Stat(in.path)
	if err != nil {
		return nil, err
	}
	in.fileBytes = st.Size()
	in.queries = queryMix(in.specs, seed)
	return in, nil
}

// queryMix issues "<property> <plural type>" and its negation for every
// Table-2 group, in an order shuffled by seed. "pretty celebrities" is in
// the mix and fails on every run: query.Parse takes "pretty" as a degree
// adverb and never backtracks.
func queryMix(specs []corpus.Spec, seed uint64) []queryItem {
	var out []queryItem
	for _, s := range specs {
		noun := strings.ToLower(kb.Pluralize(s.Type))
		out = append(out,
			queryItem{text: s.Property + " " + noun, typ: s.Type, property: s.Property},
			queryItem{text: "not " + s.Property + " " + noun, typ: s.Type, property: s.Property, negated: true})
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// readCorpus loads the JSONL corpus with corpus.Iterator, as the CLI's -in
// path does.
func readCorpus(path string, sizeHint int) ([]surveyor.Document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	it := corpus.NewIterator(f, corpus.IteratorConfig{})
	docs := make([]surveyor.Document, 0, sizeHint)
	for it.Next() {
		d := it.Doc()
		docs = append(docs, surveyor.Document{URL: d.URL, Domain: d.Domain, Text: d.Text})
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}

// readPrefixLines returns the first n lines of the file at path.
func readPrefixLines(path string, n int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	end := 0
	for i := 0; i < n && end < len(data); i++ {
		j := bytes.IndexByte(data[end:], '\n')
		if j < 0 {
			return data, nil
		}
		end += j + 1
	}
	return data[:end], nil
}
