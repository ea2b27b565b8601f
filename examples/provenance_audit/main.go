// provenance_audit plays the role of a light client auditing a token
// balance's history: a node answers provenance queries with Merkle
// evidence, and the auditor verifies every answer against nothing but the
// published state root digest — including detection of a dishonest node
// that tampers with a value or drops a version (§6.2).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"cole"
)

func main() {
	dir, err := os.MkdirTemp("", "cole-audit-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// The "full node": a token contract whose supply account changes on
	// most blocks, plus background traffic from other accounts.
	store, err := cole.Open(cole.Options{Dir: dir, MemCapacity: 512, SizeRatio: 2, AsyncMerge: true})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	supply := cole.AddressFromString("token/total-supply")
	rng := rand.New(rand.NewSource(99))
	supplyVal := uint64(1_000_000)
	supplyAt := map[uint64]uint64{}

	const blocks = 500
	var hstate cole.Hash
	for h := uint64(1); h <= blocks; h++ {
		if err := store.BeginBlock(h); err != nil {
			log.Fatal(err)
		}
		if rng.Intn(3) > 0 { // supply moves on ~2/3 of blocks
			supplyVal += uint64(rng.Intn(1000))
			if err := store.Put(supply, cole.ValueFromUint64(supplyVal)); err != nil {
				log.Fatal(err)
			}
			supplyAt[h] = supplyVal
		}
		for i := 0; i < 5; i++ { // unrelated traffic
			a := cole.AddressFromString(fmt.Sprintf("holder-%d", rng.Intn(200)))
			if err := store.Put(a, cole.ValueFromUint64(rng.Uint64()%10000)); err != nil {
				log.Fatal(err)
			}
		}
		if hstate, err = store.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("chain at height %d, Hstate=%s…\n\n", blocks, hstate.String()[:16])

	// The auditor asks: how did the supply change in blocks [301, 400]?
	lo, hi := uint64(301), uint64(400)
	versions, proof, err := store.Prov(supply, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	verified, err := proof.Verify(hstate, supply, lo, hi)
	if err != nil {
		log.Fatalf("audit failed: %v", err)
	}
	fmt.Printf("audit window [%d,%d]: %d supply changes, proof %d bytes\n",
		lo, hi, len(verified), proof.Size())
	for i, v := range verified {
		if i < 3 || i >= len(verified)-2 {
			fmt.Printf("  block %4d: supply = %d\n", v.Blk, v.Value.Uint64())
		} else if i == 3 {
			fmt.Printf("  … %d more …\n", len(verified)-5)
		}
		if want, okW := supplyAt[v.Blk]; !okW || want != v.Value.Uint64() {
			log.Fatalf("verified value at block %d does not match ground truth", v.Blk)
		}
	}
	if len(verified) != len(versions) {
		log.Fatal("verifier and node disagree on result count")
	}
	fmt.Println("all verified values match ground truth ✓")

	// A dishonest node inflates a historical supply figure: the Merkle
	// evidence no longer hashes to Hstate.
	// (A one-shard store hands back the engine proof itself; a sharded
	// store wraps it as (*cole.ShardProof).Inner.)
	_, evil, err := store.Prov(supply, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	evilProof := evil.(*cole.Proof)
	tampered := false
	for _, rp := range evilProof.Runs {
		if rp.Prov != nil && len(rp.Prov.Span) > 0 {
			for i := range rp.Prov.Span {
				if rp.Prov.Span[i].Key.Addr == supply {
					rp.Prov.Span[i].Value = cole.ValueFromUint64(999_999_999)
					// Keep the claimed results consistent with the lie.
					for j := range rp.Prov.Results {
						if rp.Prov.Results[j].Key == rp.Prov.Span[i].Key {
							rp.Prov.Results[j].Value = rp.Prov.Span[i].Value
						}
					}
					tampered = true
					break
				}
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		log.Fatal("audit demo expected on-disk versions to tamper with")
	}
	if _, err := evilProof.Verify(hstate, supply, lo, hi); err == nil {
		log.Fatal("tampered history passed verification?!")
	} else {
		fmt.Printf("\ndishonest node detected: %v ✓\n", err)
	}

	// A node hiding a version (dropping part of the span) is also caught.
	_, hole, err := store.Prov(supply, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	holeProof := hole.(*cole.Proof)
	for _, rp := range holeProof.Runs {
		if rp.Prov != nil && len(rp.Prov.Results) > 1 {
			rp.Prov.Results = rp.Prov.Results[1:]
			break
		}
	}
	if _, err := holeProof.Verify(hstate, supply, lo, hi); err == nil {
		log.Fatal("hidden version passed verification?!")
	} else {
		fmt.Printf("hidden version detected: %v ✓\n", err)
	}
}
