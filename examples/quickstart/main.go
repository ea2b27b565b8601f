// Quickstart: open a COLE store, write a few blocks of state updates,
// read the latest and historical values, and run a verified provenance
// query — the four functions of the blockchain storage interface (§2).
package main

import (
	"fmt"
	"log"
	"os"

	"cole"
)

func main() {
	dir, err := os.MkdirTemp("", "cole-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	store, err := cole.Open(cole.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	alice := cole.AddressFromString("alice")
	bob := cole.AddressFromString("bob")

	// Blocks update states; each commit returns the state root digest
	// Hstate that a blockchain would place in the block header.
	var lastRoot cole.Hash
	for height := uint64(1); height <= 5; height++ {
		if err := store.BeginBlock(height); err != nil {
			log.Fatal(err)
		}
		// Alice's balance changes every block; Bob's only at block 3.
		if err := store.Put(alice, cole.ValueFromUint64(100*height)); err != nil {
			log.Fatal(err)
		}
		if height == 3 {
			if err := store.Put(bob, cole.ValueFromUint64(777)); err != nil {
				log.Fatal(err)
			}
		}
		lastRoot, err = store.Commit()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("block %d committed: Hstate=%s…\n", height, lastRoot.String()[:16])
	}

	// Get: the latest value (§2's Get(addr)).
	v, ok, err := store.Get(alice)
	if err != nil || !ok {
		log.Fatalf("get alice: ok=%v err=%v", ok, err)
	}
	fmt.Printf("\nalice latest balance: %d\n", v.Uint64())

	// GetAt: the value active at a historical height.
	v, at, ok, err := store.GetAt(alice, 2)
	if err != nil || !ok {
		log.Fatalf("getat alice: ok=%v err=%v", ok, err)
	}
	fmt.Printf("alice at block 2:     %d (written at block %d)\n", v.Uint64(), at)

	// Prov + proof.Verify: the full version history with integrity
	// proof, checked against the published state root.
	versions, proof, err := store.Prov(alice, 1, 5)
	if err != nil {
		log.Fatal(err)
	}
	verified, err := proof.Verify(lastRoot, alice, 1, 5)
	if err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Printf("\nprovenance of alice over blocks [1,5] (%d versions, %d-byte proof):\n",
		len(versions), proof.Size())
	for _, ver := range verified {
		fmt.Printf("  block %d → %d\n", ver.Blk, ver.Value.Uint64())
	}

	// Tampered proofs are rejected.
	badRoot := lastRoot
	badRoot[0] ^= 0xFF
	if _, err := proof.Verify(badRoot, alice, 1, 5); err == nil {
		log.Fatal("tampered root verified?!")
	}
	fmt.Println("\ntampered state root correctly rejected ✓")
}
