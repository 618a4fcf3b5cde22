package profile

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pathsched/internal/interp"
	"pathsched/internal/ir"
)

func TestEdgeProfileRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, true, false, true})
	ep := NewEdgeProfiler(prog)
	rng := rand.New(rand.NewSource(9))
	for a := 0; a < 5; a++ {
		feedWalk(ep, legalWalk(prog, rng, 40))
	}
	orig := ep.Profile()
	text := orig.WriteText()
	back, err := ParseEdgeProfile(len(prog.Procs), text)
	if err != nil {
		t.Fatalf("ParseEdgeProfile: %v\n%s", err, text)
	}
	if back.Entries(0) != orig.Entries(0) {
		t.Fatal("entries diverged")
	}
	for b := ir.BlockID(0); b < 4; b++ {
		if back.BlockFreq(0, b) != orig.BlockFreq(0, b) {
			t.Fatalf("block b%d diverged", b)
		}
		for to := ir.BlockID(0); to < 4; to++ {
			if back.EdgeFreq(0, b, to) != orig.EdgeFreq(0, b, to) {
				t.Fatalf("edge b%d->b%d diverged", b, to)
			}
		}
		s1, f1 := orig.MostLikelySucc(0, b)
		s2, f2 := back.MostLikelySucc(0, b)
		if s1 != s2 || f1 != f2 {
			t.Fatalf("MostLikelySucc(b%d) diverged", b)
		}
		p1, g1 := orig.MostLikelyPred(0, b)
		p2, g2 := back.MostLikelyPred(0, b)
		if p1 != p2 || g1 != g2 {
			t.Fatalf("MostLikelyPred(b%d) diverged", b)
		}
	}
}

func TestPathProfileRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, false, true, true, false})
	pp := NewPathProfiler(prog, PathConfig{Depth: 4, MaxBlocks: 10})
	rng := rand.New(rand.NewSource(17))
	var walks [][]ir.BlockID
	for a := 0; a < 6; a++ {
		w := legalWalk(prog, rng, 60)
		walks = append(walks, w)
		feedWalk(pp, w)
	}
	orig := pp.Profile()
	text := pp.WriteText()
	back, err := ParsePathProfile(prog, text)
	if err != nil {
		t.Fatalf("ParsePathProfile: %v", err)
	}
	if back.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", back.Depth())
	}
	for _, w := range walks {
		for s := 0; s < len(w); s++ {
			for l := 1; l <= 5 && s+l <= len(w); l++ {
				seq := w[s : s+l]
				if orig.Freq(0, seq) != back.Freq(0, seq) {
					t.Fatalf("Freq(%s) diverged: %d vs %d",
						FmtSeq(seq), orig.Freq(0, seq), back.Freq(0, seq))
				}
			}
		}
	}
}

func TestPathProfileRoundTripOnRealRun(t *testing.T) {
	bd := ir.NewBuilder("loop", 8)
	pb := bd.Proc("main")
	entry, head, body, exit := pb.NewBlock(), pb.NewBlock(), pb.NewBlock(), pb.NewBlock()
	entry.Add(ir.MovI(1, 0))
	entry.Jmp(head.ID())
	head.Add(ir.CmpLTI(2, 1, 40))
	head.Br(2, body.ID(), exit.ID())
	body.Add(ir.AddI(1, 1, 1))
	body.Jmp(head.ID())
	exit.Ret(1)
	prog := bd.Finish()

	pp := NewPathProfiler(prog, PathConfig{})
	if _, err := interp.Run(prog, interp.Config{Observer: pp}); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePathProfile(prog, pp.WriteText())
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Freq(0, []ir.BlockID{1, 2, 1, 2}); got != 39 {
		t.Fatalf("two-iteration freq after round trip = %d, want 39", got)
	}
}

// The parsed profile must carry the complete configuration the writer
// had — cache keys fingerprint the normalized config, so any field
// that fails to survive the round trip silently conflates
// differently-gathered profiles — and re-serializing must reproduce
// the exact bytes.
func TestPathProfileConfigRoundTrip(t *testing.T) {
	prog := chainProg([]bool{true, false, true})
	configs := []PathConfig{
		{},
		{Depth: 4, MaxBlocks: 10},
		{Depth: 7},
		{MaxBlocks: 9},
		{Depth: 4, MaxBlocks: 10, CrossActivation: true},
		{CrossActivation: true},
	}
	for _, cfg := range configs {
		pp := NewPathProfiler(prog, cfg)
		rng := rand.New(rand.NewSource(23))
		for a := 0; a < 4; a++ {
			feedWalk(pp, legalWalk(prog, rng, 30))
		}
		text := pp.WriteText()
		back, err := ParsePathProfiler(prog, text)
		if err != nil {
			t.Fatalf("%+v: ParsePathProfiler: %v", cfg, err)
		}
		if got, want := back.Profile().Config(), cfg.Normalized(); got != want {
			t.Errorf("%+v: config after round trip = %+v, want %+v", cfg, got, want)
		}
		if again := back.WriteText(); again != text {
			t.Errorf("%+v: serialize->parse->serialize not byte-identical:\n%s\nvs\n%s", cfg, text, again)
		}
	}
}

func TestProfileParseErrors(t *testing.T) {
	prog := chainProg([]bool{true, true})
	edgeCases := []string{
		"",
		"wrongheader\n",
		"edgeprofile\nblock b0: 5\n", // block before proc
		"edgeprofile\nproc 99 entries=1\n",
		"edgeprofile\nproc 0 entries=x\n",
		"edgeprofile\nproc 0 entries=1\nnonsense\n",
		"edgeprofile\nproc 0 entries=1\nblock b-1: 1\n",
		"edgeprofile\nproc 0 entries=1\nblock b100000000: 1\n",
		"edgeprofile\nproc 0 entries=1\nedge b0->b100000000: 1\n",
	}
	for _, text := range edgeCases {
		if _, err := ParseEdgeProfile(1, text); err == nil {
			t.Errorf("edge parse accepted %q", text)
		}
	}
	pathCases := []string{
		"",
		"edgeprofile\n",
		"pathprofile depth=zz\n",
		"pathprofile depth=4 maxblocks=8\npath 5: b0\n", // path before proc
		"pathprofile depth=4 maxblocks=8\nproc 0\npath x: b0\n",
		"pathprofile depth=4 maxblocks=8\nproc 0\npath 5:\n",
		"pathprofile depth=4 maxblocks=8\nproc 7\n",
		"pathprofile depth=-1\n",
		"pathprofile maxblocks=-3\n",
		"pathprofile depth=4 maxblocks=8\nproc 0\npath 1: b99\n",
		"pathprofile depth=4 maxblocks=8\nproc 0\npath 1: b-1\n",
		"pathprofile depth=4 maxblocks=2\nproc 0\npath 1: b0 b1 b0\n", // longer than maxblocks
	}
	for _, text := range pathCases {
		if _, err := ParsePathProfile(prog, text); err == nil {
			t.Errorf("path parse accepted %q", text)
		}
	}
}

// A hostile block id must be rejected before it sizes anything: edge
// profiles are dense by block id, and one line naming block 1e8 used to
// grow every per-block slice to 1e8 entries.
func TestParseEdgeProfileBoundsBlockIDs(t *testing.T) {
	for _, text := range []string{
		"edgeprofile\nproc 0 entries=1\nblock b100000000: 1\n",
		"edgeprofile\nproc 0 entries=1\nedge b100000000->b0: 1\n",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseEdgeProfile(1, text)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("parse accepted %q", text)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("parsing %q allocated %d bytes", text, d)
		}
	}
}

// The parser's block-id bound is the one ir.Verify puts on programs,
// so the edge profile of the largest valid procedure round-trips.
func TestEdgeProfileRoundTripAtBlockBound(t *testing.T) {
	prog := chainProg(make([]bool, ir.MaxBlocks))
	if err := ir.Verify(prog); err != nil {
		t.Fatalf("procedure of ir.MaxBlocks blocks rejected: %v", err)
	}
	ep := NewEdgeProfiler(prog)
	feedWalk(ep, []ir.BlockID{ir.MaxBlocks - 3, ir.MaxBlocks - 2, ir.MaxBlocks - 1, 0})
	text := ep.Profile().WriteText()
	if !strings.Contains(text, fmt.Sprintf("edge b%d->b0: 1", ir.MaxBlocks-1)) {
		t.Fatalf("profile lacks the edge out of the last block:\n%s", text)
	}
	back, err := ParseEdgeProfile(len(prog.Procs), text)
	if err != nil {
		t.Fatalf("ParseEdgeProfile: %v\n%s", err, text)
	}
	if got := back.WriteText(); got != text {
		t.Fatalf("round trip changed the text:\n%s\nwant:\n%s", got, text)
	}
}

// WriteText lists windows in the byte order of their 4-byte
// little-endian encodings (the order a string-keyed table sorted them
// in); ids of 256 and up make that differ from numeric order, and the
// order must not drift.
func TestPathTextOrderIsEncodingOrder(t *testing.T) {
	branchy := make([]bool, 600)
	prog := chainProg(branchy)
	pp := NewPathProfiler(prog, PathConfig{Depth: 3, MaxBlocks: 3})
	rng := rand.New(rand.NewSource(3))
	for a := 0; a < 40; a++ {
		b := ir.BlockID(rng.Intn(len(branchy) - 3))
		feedWalk(pp, []ir.BlockID{b, b + 1, b + 2})
	}
	var got []string
	for _, line := range strings.Split(pp.WriteText(), "\n") {
		if strings.HasPrefix(line, "path ") {
			got = append(got, line[strings.IndexByte(line, ':')+1:])
		}
	}
	type keyed struct{ key, line string }
	var want []keyed
	for _, nd := range pp.procs[0].nodesList {
		line := ""
		for _, b := range nd.seq {
			line += fmt.Sprintf(" b%d", b)
		}
		want = append(want, keyed{seqKey(nd.seq), line})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].key < want[j].key })
	if len(got) != len(want) {
		t.Fatalf("%d path lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].line {
			t.Fatalf("line %d: path%s, want path%s", i, got[i], want[i].line)
		}
	}
}

func TestProfileTextIsStable(t *testing.T) {
	// Serialization must be deterministic (sorted) so diffs are usable.
	prog := chainProg([]bool{true, true, true})
	mk := func() (string, string) {
		ep := NewEdgeProfiler(prog)
		pp := NewPathProfiler(prog, PathConfig{Depth: 3})
		rng := rand.New(rand.NewSource(5))
		for a := 0; a < 4; a++ {
			w := legalWalk(prog, rng, 30)
			feedWalk(Multi{ep, pp}, w)
		}
		return ep.Profile().WriteText(), pp.WriteText()
	}
	e1, p1 := mk()
	e2, p2 := mk()
	if e1 != e2 || p1 != p2 {
		t.Fatal("profile serialization is not deterministic")
	}
	if !strings.Contains(p1, "pathprofile depth=3") {
		t.Fatalf("header malformed:\n%s", p1)
	}
}
