package fleet

// Continuous-profiling capture: when a rule with Profile set fires, the
// collector snapshots the offending instance's pprof endpoint (heap +
// CPU) into ProfileDir, retaining the newest ProfileKeep captures.
// Captures run asynchronously — a 5s CPU profile must not stall the
// scrape loop — and Close waits for stragglers.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// profileTarget resolves the instance to profile for a transition: the
// event's own instance when it is a real one, else (for derived fleet
// signals) the shard leader named by the event's shard label.
func (c *Collector) profileTarget(ev AlertEvent) (id, addr string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Instance != FleetInstance {
		if st := c.instances[ev.Instance]; st != nil && st.inst.Addr != "" {
			return ev.Instance, st.inst.Addr, true
		}
		return "", "", false
	}
	labels := parseLabels(ev.Labels)
	if shard, found := labels["shard"]; found && c.topo != nil {
		for _, sh := range c.topo.Shards {
			if fmt.Sprintf("%d", sh.ID) != shard {
				continue
			}
			for iid, st := range c.instances {
				if st.inst.CacheAddr == sh.Addr && st.inst.Addr != "" {
					return iid, st.inst.Addr, true
				}
			}
		}
	}
	if inst, found := labels["instance"]; found {
		if st := c.instances[inst]; st != nil && st.inst.Addr != "" {
			return inst, st.inst.Addr, true
		}
	}
	return "", "", false
}

func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '_'
	}, s)
}

// captureProfile snapshots heap + CPU profiles of the transition's
// target instance into ProfileDir, asynchronously.
func (c *Collector) captureProfile(ev AlertEvent) {
	id, addr, ok := c.profileTarget(ev)
	if !ok {
		c.log.Warn("profile capture skipped: no target instance",
			"rule", ev.Rule, "instance", ev.Instance, "labels", ev.Labels)
		return
	}
	c.mu.Lock()
	c.profSeq++
	seq := c.profSeq
	c.mu.Unlock()
	base := fmt.Sprintf("prof-%06d-%s-%s", seq, sanitizeName(ev.Rule), sanitizeName(id))
	l := c.log.With("trace", ev.Trace)
	c.profWG.Add(1)
	go func() {
		defer c.profWG.Done()
		if err := os.MkdirAll(c.cfg.ProfileDir, 0o755); err != nil {
			l.Error("profile dir", "err", err.Error())
			return
		}
		wrote := 0
		for _, p := range []struct {
			suffix, path string
		}{
			{"heap", "/debug/pprof/heap"},
			{"cpu", fmt.Sprintf("/debug/pprof/profile?seconds=%d", c.cfg.ProfileSeconds)},
		} {
			body, err := c.profFetch("http://" + addr + p.path)
			if err != nil {
				l.Warn("profile fetch failed", "instance", id, "kind", p.suffix, "err", err.Error())
				continue
			}
			file := filepath.Join(c.cfg.ProfileDir, base+"-"+p.suffix+".pprof")
			if err := os.WriteFile(file, body, 0o644); err != nil {
				l.Error("profile write failed", "file", file, "err", err.Error())
				continue
			}
			wrote++
		}
		if wrote == 0 {
			return
		}
		l.Info("profile captured", "instance", id, "base", base)
		if c.m != nil {
			c.m.profiles.Inc()
		}
		c.mu.Lock()
		c.profiles = append(c.profiles, base)
		var evict []string
		if keep := c.cfg.ProfileKeep; len(c.profiles) > keep {
			evict = append(evict, c.profiles[:len(c.profiles)-keep]...)
			c.profiles = append([]string(nil), c.profiles[len(c.profiles)-keep:]...)
		}
		c.mu.Unlock()
		for _, old := range evict {
			for _, suffix := range []string{"-heap.pprof", "-cpu.pprof"} {
				_ = os.Remove(filepath.Join(c.cfg.ProfileDir, old+suffix))
			}
		}
	}()
}

// Profiles returns the retained capture base names, oldest first.
func (c *Collector) Profiles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.profiles...)
}
