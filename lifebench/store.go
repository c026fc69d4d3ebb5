package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"condorj2/internal/core"
	"condorj2/internal/sqldb"
)

// storeFiles names every file a store keeps in its VFS: the WAL, and
// under paged storage the page file, the double-write buffer and the two
// checkpoint meta generations.
var storeFiles = []string{walPath, walPath + ".pages", walPath + ".dwb", walPath + ".meta.a", walPath + ".meta.b"}

// snapshot is a crash image of a store (its files copied between rounds,
// with no clean shutdown) plus the pool and accounting state the CAS
// reported just before the copy.
type snapshot struct {
	files map[string][]byte
	pool  PoolCounts
	users map[string]core.UserStatsResponse
}

func (s *snapshot) bytes() int {
	n := 0
	for _, f := range s.files {
		n += len(f)
	}
	return n
}

// takeSnapshot copies the store's files while no operation is in flight.
func (b *bench) takeSnapshot() error {
	ctx := context.Background()
	ps, err := b.in.svc.PoolStatus(ctx, &core.PoolStatusRequest{})
	if err != nil {
		return err
	}
	pc, err := CountsOf(ps)
	if err != nil {
		return err
	}
	b.check(CheckPool(b.m.poolCounts(), ps))
	users, err := serviceUserStats(b.in.svc, b.owners)
	if err != nil {
		return err
	}
	s := &snapshot{files: map[string][]byte{}, pool: pc, users: users}
	for _, name := range storeFiles {
		data, err := b.in.vfs.ReadFile(name)
		if err != nil {
			return err
		}
		if data != nil {
			s.files[name] = data
		}
	}
	b.snap = s
	return nil
}

func serviceUserStats(svc *core.Service, owners []string) (map[string]core.UserStatsResponse, error) {
	out := make(map[string]core.UserStatsResponse, len(owners))
	for _, o := range owners {
		resp, err := svc.UserStats(context.Background(), &core.UserStatsRequest{Owner: o})
		if err != nil {
			return nil, err
		}
		out[o] = *resp
	}
	return out, nil
}

// restart reopens a fresh copy of the snapshot the way condorj2d starts
// on an existing data file: sqldb.Open recovers it, core.New assembles
// the CAS, RecoverInFlight reconciles in-flight state, and the first
// PoolStatus is answered. It returns that wall time less the host's CPU
// steal in it; the answer and every owner's UserStats are checked against
// the state before the copy.
func restart(sp *spec, s *snapshot, owners []string) (time.Duration, []error, error) {
	vfs := sqldb.NewMemVFS()
	for name, data := range s.files {
		f, err := vfs.OpenRandom(name)
		if err != nil {
			return 0, nil, err
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			return 0, nil, err
		}
	}
	ctx := context.Background()
	runtime.GC() // every reopening starts from the same heap
	t0, s0 := time.Now(), hostSteal()
	eng, err := sqldb.Open(storeOptions(sp, vfs))
	if err != nil {
		return 0, nil, fmt.Errorf("restart: open: %w", err)
	}
	defer eng.Close()
	cas, err := core.New(core.Options{Engine: eng, PoolSize: 8})
	if err != nil {
		return 0, nil, fmt.Errorf("restart: assemble: %w", err)
	}
	defer cas.Close()
	if _, err := cas.Service.RecoverInFlight(ctx); err != nil {
		return 0, nil, fmt.Errorf("restart: recover in-flight: %w", err)
	}
	ps, err := cas.Service.PoolStatus(ctx, &core.PoolStatusRequest{})
	if err != nil {
		return 0, nil, fmt.Errorf("restart: pool status: %w", err)
	}
	d := time.Since(t0) - (hostSteal() - s0)
	users, err := serviceUserStats(cas.Service, owners)
	if err != nil {
		return 0, nil, err
	}
	return d, CheckRestart(s.pool, s.users, ps, users), nil
}
