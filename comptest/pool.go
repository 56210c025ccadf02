package comptest

import (
	"strings"

	"repro/internal/script"
	"repro/internal/stand"
)

// compiledFor returns the compiled form of sc, compiling and caching it
// on first use. It returns nil when the script does not compile; the
// caller then falls back to the interpreted path, whose validation
// produces the canonical error report.
func (r *Runner) compiledFor(sc *script.Script) *script.Compiled {
	r.compileMu.RLock()
	c, ok := r.compiled[sc]
	r.compileMu.RUnlock()
	if ok {
		return c
	}
	c, _ = script.Compile(sc, r.methods)
	r.compileMu.Lock()
	r.compiled[sc] = c
	r.compileMu.Unlock()
	return c
}

// standKey returns the pool key under which a unit's stand can be
// reused, or "" when pooling is off (WithoutStandPool). Faults and
// observers are per-run state the Runner sets and clears around every
// run, and observers see run-relative time, so neither keeps a unit
// off the pool.
func (r *Runner) standKey(u Unit) string {
	if r.noPool {
		return ""
	}
	dut := u.DUT
	if dut == "" {
		dut = r.dutName
	}
	standPart := u.Stand
	if standPart == "" {
		if r.standCfg != nil {
			standPart = "\x01cfg"
		} else {
			standPart = r.standName
		}
	}
	h := stand.HarnessFromScript(u.Script)
	return standPart + "\x00" + dut + "\x00" +
		strings.Join(h.Forward, ",") + "|" + strings.Join(h.Return, ",")
}

// takeStand pops an idle stand for the key, re-aligned so its next run
// is byte-identical to one on a fresh stand (see stand.AlignForReuse),
// or returns nil. Aligning on take rather than on release spares the
// stands that are never reused.
func (r *Runner) takeStand(key string) *stand.Stand {
	if key == "" {
		return nil
	}
	r.poolMu.Lock()
	idle := r.pools[key]
	if len(idle) == 0 {
		r.poolMu.Unlock()
		return nil
	}
	st := idle[len(idle)-1]
	idle[len(idle)-1] = nil
	r.pools[key] = idle[:len(idle)-1]
	r.poolMu.Unlock()
	st.AlignForReuse()
	return st
}

// releaseStand appends a stand to its key's idle list after a run. A
// stand is only ever idle or held by one running unit, so a key never
// holds more idle stands than the peak number of its units running at
// once. A stand whose DUT carries injected faults that cannot be
// cleared is dropped rather than pooled.
func (r *Runner) releaseStand(key string, st *stand.Stand, faulted bool) {
	if key == "" {
		return
	}
	if faulted {
		cf, ok := st.DUT().(interface{ ClearFaults() })
		if !ok {
			return
		}
		cf.ClearFaults()
	}
	r.poolMu.Lock()
	r.pools[key] = append(r.pools[key], st)
	r.poolMu.Unlock()
}
