// Per-tenant check sampling for the daemon. Each tenant replays under
// a sampling spec resolved from (per-job override, tenant config,
// daemon default), and every distinct (tenant, spec) pair gets ONE
// persistent governor for the daemon's lifetime: successive jobs keep
// feeding the same feedback loop, so the adapted rate carries across
// jobs instead of restarting cold on every segment. The live rates are
// exported as /statsz gauges next to the sample.* counters.
package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"spd3/client"
	"spd3/internal/sample"
)

// SamplingConfig tunes the daemon's check sampling. The zero value
// means sampling off for every tenant.
type SamplingConfig struct {
	// Default is the sampling spec applied to every tenant without an
	// explicit entry in Tenants — "bernoulli:0.01", "burst:0.02", or
	// "off". Empty means off.
	Default string
	// Budget is the overhead budget handed to each governor (0.05 =
	// hold modeled check overhead at 5% of uninstrumented time). 0
	// freezes rates at their configured values.
	Budget float64
	// Tenants maps tenant name → sampling spec, overriding Default.
	Tenants map[string]string
}

// validate parses every configured spec so a typo fails at Open, not
// at the first job that lands on the misconfigured tenant.
func (c SamplingConfig) validate() error {
	if _, err := sample.Parse(c.Default); err != nil {
		return fmt.Errorf("sampling default %q: %w", c.Default, err)
	}
	if !(c.Budget >= 0 && c.Budget <= 1) { // also refuses NaN
		return fmt.Errorf("sampling budget %v out of [0, 1]", c.Budget)
	}
	for t, spec := range c.Tenants {
		if _, err := sample.Parse(spec); err != nil {
			return fmt.Errorf("sampling for tenant %q: %q: %w", t, spec, err)
		}
	}
	return nil
}

// samplerTable owns the daemon's governors, created lazily per
// (tenant, spec) actually seen and kept forever after.
type samplerTable struct {
	cfg  SamplingConfig
	mu   sync.Mutex
	govs map[string]*sample.Governor
}

func newSamplerTable(cfg SamplingConfig) *samplerTable {
	return &samplerTable{cfg: cfg, govs: map[string]*sample.Governor{}}
}

// specFor resolves the spec in effect for a tenant: the per-job
// override when present, else the tenant's configured spec, else the
// daemon default.
func (st *samplerTable) specFor(tenant, override string) string {
	if override != "" {
		return override
	}
	if spec, ok := st.cfg.Tenants[tenant]; ok {
		return spec
	}
	return st.cfg.Default
}

// governor returns the persistent governor for (tenant, override), or
// nil when sampling is off for that pair. Specs were validated at Open
// (config) and submit (override), so a parse failure here degrades to
// sampling off rather than panicking mid-replay.
func (st *samplerTable) governor(tenant, override string) *sample.Governor {
	spec := st.specFor(tenant, override)
	key := tenant + "\x00" + spec
	st.mu.Lock()
	defer st.mu.Unlock()
	g := st.govs[key]
	if g == nil {
		g, _ = sample.Govern(spec, st.cfg.Budget)
		if g != nil {
			st.govs[key] = g
		}
	}
	return g
}

// gauges snapshots every live governor for /statsz, ordered by tenant
// then mode so the listing is deterministic.
func (st *samplerTable) gauges() []client.TenantSampling {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.govs) == 0 {
		return nil
	}
	out := make([]client.TenantSampling, 0, len(st.govs))
	for key, g := range st.govs {
		tenant, _, _ := strings.Cut(key, "\x00")
		out = append(out, client.TenantSampling{Tenant: tenant, Mode: g.Mode().String(), Rate: g.Rate()})
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Tenant != out[k].Tenant {
			return out[i].Tenant < out[k].Tenant
		}
		return out[i].Mode < out[k].Mode
	})
	return out
}
