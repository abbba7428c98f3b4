package server

import (
	"fmt"
	"sort"
	"sync"
)

// registry is the tenant table. Lookups on the decide path take the read
// lock, which they share, so they wait only on registration and reload.
type registry struct {
	mu sync.RWMutex
	m  map[string]*Tenant
}

// newRegistry builds an empty registry.
func newRegistry() *registry {
	return &registry{m: make(map[string]*Tenant)}
}

// get resolves a tenant, or nil.
func (r *registry) get(name string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[name]
}

// put installs a tenant; it fails if the name is taken (registration is
// create-only so a tenant's guard state is never silently replaced).
func (r *registry) put(t *Tenant) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.m[t.spec.Name]; exists {
		return fmt.Errorf("server: tenant %q already registered", t.spec.Name)
	}
	r.m[t.spec.Name] = t
	return nil
}

// replace installs a tenant unconditionally and returns the previous
// holder of the name (nil if the name was free). The reload path uses it
// to swap a rebuilt tenant in before retiring the old one, so requests
// always resolve to a live tenant.
func (r *registry) replace(t *Tenant) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.m[t.spec.Name]
	r.m[t.spec.Name] = t
	return old
}

// all returns every tenant sorted by name — the stable order drain,
// snapshots and stats all iterate in.
func (r *registry) all() []*Tenant {
	r.mu.RLock()
	ts := make([]*Tenant, 0, len(r.m))
	for _, t := range r.m {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].spec.Name < ts[j].spec.Name })
	return ts
}
