package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"

	"pathsched/internal/core"
	"pathsched/internal/ir"
	"pathsched/internal/layout"
	"pathsched/internal/machine"
	"pathsched/internal/pipeline"
	"pathsched/internal/profile"
	"pathsched/internal/sched"
	"pathsched/internal/validate"
)

// The traced run re-enacts pipeline.Runner from public calls, so it
// needs the two things the runner keeps private: the compile-cache key
// (to find store entries) and the artifact framing (to get the program
// back after pipeline.VerifyEntry has checked it). Both follow
// internal/pipeline (compileKey in pipeline.go, frame in disk.go) for
// the options every workload uses: default machine, no ablation
// switches, no exact search. If the pipeline's key drifts, the traced
// run's store lookups miss, its cache counts stop matching the untraced
// runner's, and the run reports correct=false.

// compileKey mirrors pipeline.(*Runner).compileKey.
func compileKey(progFP, trainFP ir.Digest, validateOn bool, cfg core.Config, haveCfg bool, prof pipeline.ProfilerScheme) ir.Digest {
	w := keyWriter{h: sha256.New()}
	w.str("pathsched-pipeline-compile-v2")
	w.digest(progFP)
	w.digest(trainFP)
	w.bool(validateOn)
	if haveCfg {
		w.u64(1)
		w.digest(cfg.Fingerprint())
	} else {
		w.u64(0)
	}
	w.bool(false) // DisableRenaming
	w.bool(false) // DisableDCE
	w.bool(false) // DisableVN
	mc := machine.Default()
	w.u64(uint64(mc.FuncUnits))
	w.u64(uint64(mc.BranchPerCycle))
	w.bool(mc.Realistic)
	ec := sched.ExactConfig{}.Normalized()
	w.bool(ec.Enabled)
	w.u64(uint64(ec.NodeBudget))
	w.u64(uint64(ec.SearchBudget))
	if prof == pipeline.ProfilerBL {
		bc := profile.BLConfig{}.Normalized()
		w.str(string(pipeline.ProfilerBL))
		w.u64(uint64(bc.Depth))
		w.u64(uint64(bc.MaxBlocks))
		w.u64(uint64(bc.Iterations))
		w.bool(false)
	} else {
		pc := profile.PathConfig{}.Normalized()
		w.str(string(pipeline.ProfilerWindow))
		w.u64(uint64(pc.Depth))
		w.u64(uint64(pc.MaxBlocks))
		w.u64(0)
		w.bool(pc.CrossActivation)
	}
	var d ir.Digest
	w.h.Sum(d[:0])
	return d
}

type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *keyWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *keyWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) digest(d ir.Digest) { w.h.Write(d[:]) }

// unframe splits an artifact payload into its JSON header and body.
func unframe(payload []byte, header any) ([]byte, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return nil, fmt.Errorf("artifact header framing corrupt")
	}
	if err := json.Unmarshal(payload[w:w+int(n)], header); err != nil {
		return nil, fmt.Errorf("artifact header: %w", err)
	}
	return payload[w+int(n):], nil
}

// compiledArt is one compile as the runner's cache holds it.
type compiledArt struct {
	master *ir.Program
	fp     ir.Digest
	stats  core.Stats
	vstats *validate.Stats
}

// decodeCompiled rebuilds a compile from a payload that
// pipeline.VerifyEntry has already accepted.
func decodeCompiled(payload []byte) (*compiledArt, error) {
	var hdr struct {
		FP     string
		Stats  core.Stats
		VStats *validate.Stats
	}
	body, err := unframe(payload, &hdr)
	if err != nil {
		return nil, err
	}
	master, err := ir.DecodeProgram(body)
	if err != nil {
		return nil, err
	}
	c := &compiledArt{master: master, stats: hdr.Stats, vstats: hdr.VStats}
	if _, err := hex.Decode(c.fp[:], []byte(hdr.FP)); err != nil {
		return nil, fmt.Errorf("artifact fingerprint: %w", err)
	}
	return c, nil
}

// decodeLayout rebuilds layout weights from a verified payload.
func decodeLayout(payload []byte) (layout.Input, error) {
	var hdr struct {
		NProcs int
		Calls  [][3]int64
	}
	body, err := unframe(payload, &hdr)
	if err != nil {
		return layout.Input{}, err
	}
	prof, err := profile.ParseEdgeProfile(hdr.NProcs, string(body))
	if err != nil {
		return layout.Input{}, err
	}
	calls := make(map[[2]ir.ProcID]int64, len(hdr.Calls))
	for _, c := range hdr.Calls {
		calls[[2]ir.ProcID{ir.ProcID(c[0]), ir.ProcID(c[1])}] = c[2]
	}
	return layoutInput(calls, prof), nil
}

func layoutInput(calls map[[2]ir.ProcID]int64, prof *profile.EdgeProfile) layout.Input {
	return layout.Input{CallCounts: calls, BlockFreq: prof.BlockFreq, EdgeFreq: prof.EdgeFreq}
}
