package shard

import "cole/internal/merge"

// Scheduler exposes the store's shared merge pool.
func (s *Store) Scheduler() *merge.Scheduler { return s.sched }
