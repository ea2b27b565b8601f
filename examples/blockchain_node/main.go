// blockchain_node simulates a full blockchain node on COLE: SmallBank
// transactions are packed into blocks, executed through the chain layer,
// and sealed into a hash-linked header chain carrying Htx and Hstate
// (Figure 2 of the paper). It then demonstrates crash recovery: the node
// is killed without flushing and replays blocks above the durable
// checkpoint, converging to the same state root (§4.3).
package main

import (
	"fmt"
	"log"
	"os"

	"cole/internal/chain"
	"cole/internal/core"
	"cole/internal/workload"
)

const (
	blocks     = 120
	txPerBlock = 100
	accounts   = 500
	seed       = 7
)

func main() {
	dir, err := os.MkdirTemp("", "cole-node-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := core.Options{Dir: dir, MemCapacity: 2048, SizeRatio: 4, Fanout: 4, AsyncMerge: true}
	backend, err := chain.OpenCole(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Execute the chain.
	node := chain.New(backend, 0)
	gen := workload.NewSmallBank(seed, accounts)
	var headers []chain.Header
	for i := 0; i < blocks; i++ {
		hdr, err := node.ExecuteBlock(gen.Block(txPerBlock))
		if err != nil {
			log.Fatal(err)
		}
		headers = append(headers, hdr)
		if hdr.Height%30 == 0 {
			fmt.Printf("height %4d  Hstate=%s…  Htx=%s…\n",
				hdr.Height, hdr.Hstate.String()[:12], hdr.Htx.String()[:12])
		}
	}
	if err := chain.VerifyHeaderChain(headers); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d blocks executed, header chain verified ✓\n", len(headers))

	sb := backend.Store.Storage()
	st := backend.Store.Stats()
	fmt.Printf("storage: %d entries, %d runs, %d levels, %.2f MB on disk\n",
		sb.Entries, sb.Runs, sb.Levels, float64(sb.DataBytes+sb.IndexBytes)/(1<<20))
	fmt.Printf("engine:  %d puts, %d flushes, %d merges (%d waits)\n",
		st.Puts, st.Flushes, st.Merges, st.MergeWaits)

	// Crash: drop the store without flushing. The checkpoint tells us
	// which blocks to replay.
	checkpoint := backend.Store.CheckpointHeight()
	finalRoot := headers[len(headers)-1].Hstate
	_ = backend.Close()
	fmt.Printf("\nsimulated crash at height %d; durable checkpoint is %d\n", blocks, checkpoint)

	recovered, err := chain.OpenCole(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()

	// Replay: regenerate the identical workload and re-execute blocks
	// above the checkpoint (a real node replays its transaction log —
	// the consensus-agreed WAL, §4.3).
	replayGen := workload.NewSmallBank(seed, accounts)
	replayNode := chain.New(recovered, checkpoint)
	var lastRoot chain.Header
	for h := uint64(1); h <= blocks; h++ {
		txs := replayGen.Block(txPerBlock)
		if h <= checkpoint {
			continue // already durable
		}
		hdr, err := replayNode.ExecuteBlock(txs)
		if err != nil {
			log.Fatal(err)
		}
		lastRoot = hdr
	}
	if lastRoot.Hstate != finalRoot {
		log.Fatalf("recovery diverged: %s vs %s", lastRoot.Hstate, finalRoot)
	}
	fmt.Printf("replayed %d blocks; state root matches pre-crash chain ✓\n", blocks-int(checkpoint))
}
