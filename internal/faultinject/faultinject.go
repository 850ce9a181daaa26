// Package faultinject is the hook-based fault-injection harness used to
// exercise the engine's and the daemon's failure handling in integration
// tests: cluster panics, forced reduction/Newton failures, slow clusters,
// persistent-store I/O errors.
//
// The hooks are process-global so tests outside the xtverify root package
// (the daemon's integration suite lives in internal/daemon) can reach the
// engine's per-cluster attempt path without any test-only plumbing through
// public APIs. When no hook is installed — every production run — a fire
// site costs one atomic pointer load and a nil check.
//
// Hooks are installed with Set*Hook, which returns a restore function;
// always defer it. Installation is safe under -race, but tests that share a
// process must not install overlapping hooks concurrently (the registry is a
// single slot, last writer wins).
package faultinject

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// ClusterHook observes (and may sabotage) one fallback-ladder attempt.
// victim is the cluster's victim net name, stage the rung being attempted
// (FallbackStage.String()). Returning a non-nil error fails the attempt as
// if the numerics had failed; panicking exercises the engine's per-cluster
// recover; sleeping models a slow cluster (the per-attempt deadline then
// fires in the transient's next check).
type ClusterHook func(victim, stage string) error

// StoreHook observes (and may sabotage) one persistent-store operation.
// op is "load" or "save"; path is the entry's file path. Returning a
// non-nil error makes the store treat the operation as failed I/O.
type StoreHook func(op, path string) error

var (
	clusterHook atomic.Pointer[ClusterHook]
	storeHook   atomic.Pointer[StoreHook]
)

// SetClusterHook installs h as the process-global cluster hook and returns
// the function that removes it. Tests must defer the restore.
func SetClusterHook(h ClusterHook) (restore func()) {
	clusterHook.Store(&h)
	return func() { clusterHook.Store(nil) }
}

// FireCluster invokes the installed cluster hook, if any. Called by the
// engine at the top of every ladder attempt.
func FireCluster(victim, stage string) error {
	p := clusterHook.Load()
	if p == nil {
		return nil
	}
	return (*p)(victim, stage)
}

// SetStoreHook installs h as the process-global store hook and returns the
// function that removes it. Tests must defer the restore.
func SetStoreHook(h StoreHook) (restore func()) {
	storeHook.Store(&h)
	return func() { storeHook.Store(nil) }
}

// FireStore invokes the installed store hook, if any. Called by romstore
// before touching an entry file.
func FireStore(op, path string) error {
	p := storeHook.Load()
	if p == nil {
		return nil
	}
	return (*p)(op, path)
}

// PanicClusters returns a hook that panics on every attempt on the named
// victims (all victims when none are named) — the harness's stand-in for a
// linear-algebra blowup deep inside a reduction.
func PanicClusters(victims ...string) ClusterHook {
	match := matcher(victims)
	return func(victim, stage string) error {
		if match(victim) {
			panic(fmt.Sprintf("faultinject: injected panic in %s@%s", victim, stage))
		}
		return nil
	}
}

// SlowClusters returns a hook that sleeps d on every attempt on the named
// victims (all victims when none are named), modeling a cluster that is
// numerically fine but starved under load. With a per-attempt deadline
// shorter than d the attempt then fails with ErrTimeout.
func SlowClusters(d time.Duration, victims ...string) ClusterHook {
	match := matcher(victims)
	return func(victim, stage string) error {
		if match(victim) {
			time.Sleep(d)
		}
		return nil
	}
}

// matcher builds the victim predicate shared by the helper hooks: an empty
// list matches everything, otherwise exact names or "prefix*" globs.
func matcher(victims []string) func(string) bool {
	if len(victims) == 0 {
		return func(string) bool { return true }
	}
	exact := make(map[string]bool, len(victims))
	var prefixes []string
	for _, v := range victims {
		if strings.HasSuffix(v, "*") {
			prefixes = append(prefixes, strings.TrimSuffix(v, "*"))
		} else {
			exact[v] = true
		}
	}
	return func(name string) bool {
		if exact[name] {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
}
