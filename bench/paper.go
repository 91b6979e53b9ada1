package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"time"

	"unimem/internal/exp"
)

// paperSuite regenerates the paper's evaluation exactly as
// `unimem-bench -exp all` does: every Registry runner, in order, in full
// mode on a fresh serial Suite (class C, 4 ranks, seed 0xD07). Each
// runner is one op, and its digest covers the table it renders, so the
// digests pin the CLI's stdout byte for byte.
type paperSuite struct{}

func (paperSuite) pass(lm map[string]float64) ([]opResult, error) {
	s := exp.NewSuite()
	order, reg := exp.Registry()
	ops := make([]opResult, 0, len(order))
	tables := map[string]*exp.Table{}
	var buf bytes.Buffer
	for _, id := range order {
		start := time.Now()
		t, err := reg[id](s)
		op := opResult{key: id, latency: time.Since(start), err: err}
		if err == nil {
			buf.Reset()
			t.Render(&buf)
			op.digest = digest(buf.Bytes())
			tables[id] = t
		}
		ops = append(ops, op)
	}
	if lm == nil {
		return ops, nil
	}
	var total time.Duration
	for _, op := range ops {
		total += op.latency
	}
	for _, op := range ops {
		lm["exp."+op.key+"_share"] = float64(op.latency) / float64(total)
	}
	cs := s.CacheStats()
	lm["exp.cache_hits"], lm["exp.cache_misses"] = float64(cs.Hits), float64(cs.Misses)
	if n := cs.Hits + cs.Misses; n > 0 {
		lm["exp.cache_hit_frac"] = float64(cs.Hits) / float64(n)
	}
	ratio, err := unimemVsDRAM(tables["fig9"], tables["fig10"])
	lm["exp.unimem_vs_dram"] = ratio
	return ops, err
}

// unimemVsDRAM is the geometric mean of the Unimem column over the
// benchmark rows (not the avg row) of the given tables: simulated
// execution time normalized to DRAM-only. Missing tables (their runner
// failed, which already fails the op) contribute nothing.
func unimemVsDRAM(tables ...*exp.Table) (float64, error) {
	var logSum float64
	var n int
	for _, t := range tables {
		if t == nil {
			continue
		}
		col := -1
		for i, c := range t.Columns {
			if c == "Unimem" {
				col = i
			}
		}
		if col < 0 {
			return 0, fmt.Errorf("%s: no Unimem column", t.ID)
		}
		for _, row := range t.Rows {
			if row[0] == "avg" {
				continue
			}
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return 0, fmt.Errorf("%s %s: %w", t.ID, row[0], err)
			}
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return math.Exp(logSum / float64(n)), nil
}
