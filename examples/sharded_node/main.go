// Sharded node: run a block workload through a 4-shard COLE store —
// hash-partitioned engines committed in parallel goroutines under one
// deterministic combined state root — then prove a provenance query
// against that root and survive a crash by replaying from the combined
// checkpoint.
package main

import (
	"fmt"
	"log"
	"os"

	"cole"
)

const (
	shards   = 4
	blocks   = 60
	accounts = 32
	writes   = 16
)

// putBlock applies block h's deterministic updates as one batch:
// PutBatch routes them into per-shard buffers in one pass, and Commit
// hands each shard's engine its buffer in a single call (digests are
// byte-identical to looped Put). Keyed
// to the height so the crash-recovery replay below regenerates
// identical blocks.
func putBlock(store *cole.Store, h uint64) (cole.Hash, error) {
	if err := store.BeginBlock(h); err != nil {
		return cole.Hash{}, err
	}
	batch := make([]cole.Update, 0, writes)
	for w := 0; w < writes; w++ {
		batch = append(batch, cole.Update{
			Addr:  cole.AddressFromString(fmt.Sprintf("user-%02d", (int(h)*writes+w)%accounts)),
			Value: cole.ValueFromUint64(h*1000 + uint64(w)),
		})
	}
	if err := store.PutBatch(batch); err != nil {
		return cole.Hash{}, err
	}
	return store.Commit()
}

func main() {
	dir, err := os.MkdirTemp("", "cole-sharded-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Options.Shards splits the address space across independent engines,
	// each in its own subdirectory; Commit runs them in parallel and
	// combines the per-shard roots deterministically.
	opts := cole.Options{Dir: dir, Shards: shards, MemCapacity: 48}
	store, err := cole.Open(opts)
	if err != nil {
		log.Fatal(err)
	}

	var lastRoot cole.Hash
	for h := uint64(1); h <= blocks; h++ {
		if lastRoot, err = putBlock(store, h); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("committed %d blocks across %d shards\n", blocks, store.Shards())
	fmt.Printf("combined Hstate: %s\n", lastRoot)

	// Every address deterministically routes to one shard.
	alice := cole.AddressFromString("user-07")
	fmt.Printf("user-07 lives on shard %d\n", store.ShardOf(alice))

	// A provenance proof carries the owning shard's COLE proof plus an
	// O(log N) Merkle path from the shard's root to the combined digest.
	versions, proof, err := store.Prov(alice, 1, blocks)
	if err != nil {
		log.Fatal(err)
	}
	verified, err := proof.Verify(lastRoot, alice, 1, blocks)
	if err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Printf("provenance: %d versions, %d returned by verification, proof %d bytes (shard %d)\n",
		len(versions), len(verified), proof.Size(), proof.(*cole.ShardProof).Shard)

	// Crash: close without flushing. Unflushed per-shard memory is lost;
	// the store recovers by replaying blocks above the lowest shard
	// checkpoint (shards whose checkpoint is higher skip the blocks they
	// already cover and contribute their persisted historical roots, so
	// replayed digests reproduce the published headers). The final digest
	// — once every shard has executed — matches the pre-crash one.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	store, err = cole.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	ckpt := store.CheckpointHeight()
	fmt.Printf("after crash: checkpoint %d, replaying blocks %d..%d\n", ckpt, ckpt+1, blocks)
	var recovered cole.Hash
	for h := ckpt + 1; h <= blocks; h++ {
		if recovered, err = putBlock(store, h); err != nil {
			log.Fatal(err)
		}
	}
	if recovered != lastRoot {
		log.Fatalf("recovered root %s != pre-crash root %s", recovered, lastRoot)
	}
	fmt.Printf("recovered combined Hstate matches: %s\n", recovered)
}
