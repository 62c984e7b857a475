// Per-tenant check sampling for the daemon. Each tenant replays under
// a sampling spec resolved from (per-job override, tenant config,
// daemon default), and every distinct (tenant, spec) pair gets ONE
// sampler, shared by every replay of it and forgotten with its tenant:
// successive jobs keep feeding the same feedback loop, so the adapted
// rate carries across jobs instead of restarting cold on every segment.
// The live rates are /statsz gauges next to the sample.* counters.
package server

import (
	"cmp"
	"fmt"
	"slices"
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
	// Budget is each sampler's overhead budget (0.05 = hold modeled
	// check overhead at 5% of uninstrumented time); 0 keeps rates fixed.
	Budget float64
	// Tenants maps tenant name → sampling spec, overriding Default.
	Tenants map[string]string
}

// validate parses every configured spec and checks the budget so a typo
// fails at Open, not at the first job that lands on the misconfigured
// tenant.
func (c SamplingConfig) validate() error {
	if _, err := sample.Govern(c.Default, c.Budget); err != nil {
		return fmt.Errorf("sampling default %q, budget %v: %w", c.Default, c.Budget, err)
	}
	for t, spec := range c.Tenants {
		if _, err := sample.Parse(spec); err != nil {
			return fmt.Errorf("sampling for tenant %q: %q: %w", t, spec, err)
		}
	}
	return nil
}

// samplerTable owns the daemon's samplers: one per tenant and parsed
// spec actually seen, so two spellings of a spec ("bernoulli:0.5",
// "bernoulli:0.50") share one, kept until GC forgets the tenant.
type samplerTable struct {
	cfg  SamplingConfig
	mu   sync.Mutex
	rows map[string]map[sample.Config]*sample.Sampler // tenant → spec → sampler
}

func newSamplerTable(cfg SamplingConfig) *samplerTable {
	return &samplerTable{cfg: cfg, rows: map[string]map[sample.Config]*sample.Sampler{}}
}

// sampler returns the sampler every replay of tenant shares under the
// per-job override, else the tenant's spec, else the daemon default; nil
// when that spec is off. Specs were validated at Open and at submit, so
// a parse failure here degrades to sampling off, not a mid-replay panic.
func (st *samplerTable) sampler(tenant, override string) *sample.Sampler {
	spec, ok := st.cfg.Tenants[tenant]
	if override != "" {
		spec = override
	} else if !ok {
		spec = st.cfg.Default
	}
	cfg, err := sample.Parse(spec)
	if err != nil || cfg.Mode == sample.Off {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	specs := st.rows[tenant]
	if specs == nil {
		specs = map[sample.Config]*sample.Sampler{}
		st.rows[tenant] = specs
	}
	if specs[cfg] == nil { // spec just parsed, budget checked at Open: Govern cannot fail
		specs[cfg], _ = sample.Govern(spec, st.cfg.Budget)
	}
	return specs[cfg]
}

// forget drops the samplers of tenants the quota table forgot; one that
// submitted again in between restarts at its configured rate.
func (st *samplerTable) forget(tenants []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, t := range tenants {
		delete(st.rows, t)
	}
}

// gauges snapshots every live sampler for /statsz, ordered by tenant,
// mode and rate so the listing is deterministic.
func (st *samplerTable) gauges() []client.TenantSampling {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []client.TenantSampling
	for tenant, specs := range st.rows {
		for _, s := range specs {
			out = append(out, client.TenantSampling{Tenant: tenant, Mode: s.Mode().String(), Rate: s.Rate()})
		}
	}
	slices.SortFunc(out, func(a, b client.TenantSampling) int {
		return cmp.Or(cmp.Compare(a.Tenant, b.Tenant), cmp.Compare(a.Mode, b.Mode), cmp.Compare(a.Rate, b.Rate))
	})
	return out
}
