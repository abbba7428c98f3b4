package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// shardCount is the registry's fan-out. Tenant lookup is on every request's
// hot path, so the map is sharded to keep lock contention off the decide
// latency even with many handler goroutines registering and resolving
// concurrently.
const shardCount = 16

// registry is the sharded tenant table.
type registry struct {
	shards [shardCount]regShard
}

type regShard struct {
	mu sync.RWMutex
	m  map[string]*Tenant
}

// newRegistry builds an empty registry.
func newRegistry() *registry {
	r := &registry{}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*Tenant)
	}
	return r
}

// shard maps a tenant name to its shard.
func (r *registry) shard(name string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &r.shards[h.Sum32()%shardCount]
}

// get resolves a tenant, or nil.
func (r *registry) get(name string) *Tenant {
	s := r.shard(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

// put installs a tenant; it fails if the name is taken (registration is
// create-only so a tenant's guard state is never silently replaced).
func (r *registry) put(t *Tenant) error {
	s := r.shard(t.spec.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.m[t.spec.Name]; exists {
		return fmt.Errorf("server: tenant %q already registered", t.spec.Name)
	}
	s.m[t.spec.Name] = t
	return nil
}

// replace installs a tenant unconditionally and returns the previous
// holder of the name (nil if the name was free). The reload path uses it
// to swap a rebuilt tenant in before retiring the old one, so requests
// always resolve to a live tenant.
func (r *registry) replace(t *Tenant) *Tenant {
	s := r.shard(t.spec.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.m[t.spec.Name]
	s.m[t.spec.Name] = t
	return old
}

// all returns every tenant sorted by name — the stable order drain,
// snapshots and stats all iterate in.
func (r *registry) all() []*Tenant {
	var ts []*Tenant
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, t := range s.m {
			ts = append(ts, t)
		}
		s.mu.RUnlock()
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].spec.Name < ts[j].spec.Name })
	return ts
}
