package main

import (
	"sort"
	"strings"

	"repro/internal/obs"
)

// Helpers over the fleet's /metrics?format=json snapshots. Cells the
// coordinator scraped from a worker carry a worker="w-NNNN" label; the
// coordinator's own cells do not.

func cellKey(c obs.Cell) string {
	var b strings.Builder
	for _, l := range c.Labels {
		b.WriteString(l.Name + "=" + l.Value + ",")
	}
	return b.String()
}

func isWorkerCell(c obs.Cell) bool {
	for _, l := range c.Labels {
		if l.Name == "worker" {
			return true
		}
	}
	return false
}

// delta returns after − before for every counter and histogram cell
// (matched by family and labels); gauges keep their after value.
func delta(before, after obs.Snapshot) obs.Snapshot {
	prev := map[string]obs.Cell{}
	for _, f := range before.Families {
		for _, c := range f.Cells {
			prev[f.Name+"|"+cellKey(c)] = c
		}
	}
	out := obs.Snapshot{}
	for _, f := range after.Families {
		nf := f
		nf.Cells = nil
		for _, c := range f.Cells {
			p, ok := prev[f.Name+"|"+cellKey(c)]
			if ok && f.Type != "gauge" {
				c = subCell(c, p)
			}
			nf.Cells = append(nf.Cells, c)
		}
		out.Families = append(out.Families, nf)
	}
	return out
}

func subCell(a, b obs.Cell) obs.Cell {
	out := obs.Cell{Labels: a.Labels, Value: a.Value - b.Value, Sum: a.Sum - b.Sum, Count: a.Count - b.Count}
	prev := map[float64]int64{}
	for _, bk := range b.Buckets {
		prev[bk.LE] = bk.Count
	}
	for _, bk := range a.Buckets {
		out.Buckets = append(out.Buckets, obs.Bucket{LE: bk.LE, Count: bk.Count - prev[bk.LE]})
	}
	return out
}

// cells returns the named family's cells: the coordinator's own only,
// or the whole fleet's.
func cells(s obs.Snapshot, name string, coordOnly bool) []obs.Cell {
	var out []obs.Cell
	for _, f := range s.Families {
		if f.Name != name {
			continue
		}
		for _, c := range f.Cells {
			if !coordOnly || !isWorkerCell(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

func sumCounter(s obs.Snapshot, name string, coordOnly bool) float64 {
	v := 0.0
	for _, c := range cells(s, name, coordOnly) {
		v += c.Value
	}
	return v
}

// foldHist adds the selected cells of a histogram family into one.
func foldHist(s obs.Snapshot, name string, coordOnly bool) obs.Cell {
	var out obs.Cell
	byLE := map[float64]int64{}
	for _, c := range cells(s, name, coordOnly) {
		out.Count += c.Count
		out.Sum += c.Sum
		for _, b := range c.Buckets {
			byLE[b.LE] += b.Count
		}
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	for _, le := range les {
		out.Buckets = append(out.Buckets, obs.Bucket{LE: le, Count: byLE[le]})
	}
	return out
}
