package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathsched/internal/ir"
)

// Profile serialization: a line-oriented text format so training runs
// can be decoupled from compilation (profile on one invocation, form
// superblocks in another — the usual profile-guided build workflow).
//
// Edge profiles:
//
//	edgeprofile
//	proc <id> entries=<n>
//	block b<i>: <count>
//	edge b<i>->b<j>: <count>
//
// Path profiles serialize the distinct windows the profiler recorded
// (not the derived suffix trie, which is rebuilt on load):
//
//	pathprofile depth=<d> maxblocks=<m> [crossact=1]
//	proc <id>
//	path <count>: b<i> b<j> ...
//
// crossact appears only when set, so profiles written without it keep
// their exact historical bytes. The header must carry the complete
// normalized configuration: cache keys fingerprint the parsed config,
// and a field that doesn't survive the round trip silently conflates
// differently-gathered profiles.

// WriteText serializes an edge profile.
func (e *EdgeProfile) WriteText() string {
	var sb strings.Builder
	sb.WriteString("edgeprofile\n")
	for pid, pe := range e.procs {
		fmt.Fprintf(&sb, "proc %d entries=%d\n", pid, pe.entries)
		for b, n := range pe.block {
			if n != 0 {
				fmt.Fprintf(&sb, "block b%d: %d\n", b, n)
			}
		}
		for f := range pe.succID {
			tos := make([]ir.BlockID, len(pe.succID[f]))
			copy(tos, pe.succID[f])
			sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
			for _, t := range tos {
				if n := e.EdgeFreq(ir.ProcID(pid), ir.BlockID(f), t); n != 0 {
					fmt.Fprintf(&sb, "edge b%d->b%d: %d\n", f, t, n)
				}
			}
		}
	}
	return sb.String()
}

// ParseEdgeProfile reads the text form back. nprocs sizes the profile
// (use len(prog.Procs)). Block ids must lie below ir.MaxBlocks: the
// text carries no program to size the dense per-block counts from, so
// an unbounded id would let one hostile line ("block b100000000: 1")
// allocate gigabytes.
func ParseEdgeProfile(nprocs int, text string) (*EdgeProfile, error) {
	ep := NewEdgeProfiler(&ir.Program{Procs: make([]*ir.Proc, nprocs)})
	var cur *procEdges
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != "edgeprofile" {
		return nil, fmt.Errorf("profile: missing edgeprofile header")
	}
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "proc "):
			fields := strings.Fields(line)
			if len(fields) != 3 || !strings.HasPrefix(fields[2], "entries=") {
				return nil, fmt.Errorf("profile: line %d: malformed proc line", no+2)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= nprocs {
				return nil, fmt.Errorf("profile: line %d: bad proc id", no+2)
			}
			n, err := strconv.ParseInt(fields[2][len("entries="):], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile: line %d: bad entries", no+2)
			}
			cur = ep.procs[id]
			cur.entries = n
		case strings.HasPrefix(line, "block "):
			if cur == nil {
				return nil, fmt.Errorf("profile: line %d: block before proc", no+2)
			}
			var b ir.BlockID
			var n int64
			if _, err := fmt.Sscanf(line, "block b%d: %d", &b, &n); err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", no+2, err)
			}
			if b < 0 || b >= ir.MaxBlocks {
				return nil, fmt.Errorf("profile: line %d: block id b%d out of range", no+2, b)
			}
			cur.addBlock(b, n)
		case strings.HasPrefix(line, "edge "):
			if cur == nil {
				return nil, fmt.Errorf("profile: line %d: edge before proc", no+2)
			}
			var f, t ir.BlockID
			var n int64
			if _, err := fmt.Sscanf(line, "edge b%d->b%d: %d", &f, &t, &n); err != nil {
				return nil, fmt.Errorf("profile: line %d: %v", no+2, err)
			}
			if f < 0 || t < 0 || f >= ir.MaxBlocks || t >= ir.MaxBlocks {
				return nil, fmt.Errorf("profile: line %d: block id out of range", no+2)
			}
			cur.addEdge(f, t, n)
		default:
			return nil, fmt.Errorf("profile: line %d: unrecognized %q", no+2, line)
		}
	}
	return ep.Profile(), nil
}

// WriteText serializes the profiler's recorded windows.
func (pp *PathProfiler) WriteText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pathprofile depth=%d maxblocks=%d", pp.cfg.Depth, pp.cfg.MaxBlocks)
	if pp.cfg.CrossActivation {
		sb.WriteString(" crossact=1")
	}
	sb.WriteString("\n")
	for pid, st := range pp.procs {
		if len(st.nodesList) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "proc %d\n", pid)
		for _, nd := range st.sortedNodes() {
			if nd.count == 0 {
				continue
			}
			fmt.Fprintf(&sb, "path %d:", nd.count)
			for _, b := range nd.seq {
				fmt.Fprintf(&sb, " b%d", b)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// ParsePathProfile reads a serialized path profile back into a
// queryable PathProfile. prog supplies the branch classification
// TrimToDepth depends on.
func ParsePathProfile(prog *ir.Program, text string) (*PathProfile, error) {
	pp, err := ParsePathProfiler(prog, text)
	if err != nil {
		return nil, err
	}
	return pp.Profile(), nil
}

// ParsePathProfiler reads the text form back into a live profiler, so
// callers can re-serialize: WriteText∘ParsePathProfiler∘WriteText is
// the identity, which keeps cache keys over serialized profiles
// stable.
func ParsePathProfiler(prog *ir.Program, text string) (*PathProfiler, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || !strings.HasPrefix(strings.TrimSpace(lines[0]), "pathprofile") {
		return nil, fmt.Errorf("profile: missing pathprofile header")
	}
	cfg := PathConfig{}
	for _, f := range strings.Fields(lines[0])[1:] {
		switch {
		case strings.HasPrefix(f, "depth="):
			v, err := strconv.Atoi(f[len("depth="):])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("profile: bad depth %q", f)
			}
			cfg.Depth = v
		case strings.HasPrefix(f, "maxblocks="):
			v, err := strconv.Atoi(f[len("maxblocks="):])
			if err != nil || v < 0 {
				return nil, fmt.Errorf("profile: bad maxblocks %q", f)
			}
			cfg.MaxBlocks = v
		case f == "crossact=1":
			cfg.CrossActivation = true
		default:
			return nil, fmt.Errorf("profile: unknown header field %q", f)
		}
	}
	pp := NewPathProfiler(prog, cfg)
	curProc := -1
	for no, raw := range lines[1:] {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "proc "):
			id, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "proc ")))
			if err != nil || id < 0 || id >= len(pp.procs) {
				return nil, fmt.Errorf("profile: line %d: bad proc id", no+2)
			}
			curProc = id
		case strings.HasPrefix(line, "path "):
			if curProc < 0 {
				return nil, fmt.Errorf("profile: line %d: path before proc", no+2)
			}
			rest := strings.TrimPrefix(line, "path ")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("profile: line %d: malformed path", no+2)
			}
			count, err := strconv.ParseInt(strings.TrimSpace(rest[:colon]), 10, 64)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("profile: line %d: bad count", no+2)
			}
			st := pp.procs[curProc]
			var seq []ir.BlockID
			for _, f := range strings.Fields(rest[colon+1:]) {
				if !strings.HasPrefix(f, "b") {
					return nil, fmt.Errorf("profile: line %d: bad block %q", no+2, f)
				}
				v, err := strconv.ParseInt(f[1:], 10, 32)
				if err != nil || v < 0 || v >= int64(st.nblocks) {
					return nil, fmt.Errorf("profile: line %d: bad block %q", no+2, f)
				}
				seq = append(seq, ir.BlockID(v))
			}
			if len(seq) == 0 {
				return nil, fmt.Errorf("profile: line %d: empty path", no+2)
			}
			// The profiler never records a window longer than maxblocks,
			// and the bound keeps the frozen trie (one node per distinct
			// substring of a window) proportional to the text.
			if len(seq) > pp.cfg.MaxBlocks {
				return nil, fmt.Errorf("profile: line %d: path longer than maxblocks=%d", no+2, pp.cfg.MaxBlocks)
			}
			// A window that never ran records nothing; interning it
			// would print a proc header with no paths under it.
			if count > 0 {
				st.internNode(seq).count += count
			}
		default:
			return nil, fmt.Errorf("profile: line %d: unrecognized %q", no+2, line)
		}
	}
	return pp, nil
}
