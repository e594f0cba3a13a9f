// Command chameleon-inspect loads an index saved with chameleon.Index.Save
// (or builds one from a SOSD key file) and prints its structural profile:
// the Table V metrics, size breakdown, height, and local skewness. It is the
// operational "what does my index look like" tool.
//
// With -dir it instead inspects a tiered durable directory: the tier
// manifest (generation, flushed watermark, live count) and every segment's
// metadata — level, key range, sequence watermark and size — with
// each file's integrity status: opening a segment verifies its full-file CRC
// and key order and cross-checks it against the manifest. A sharded root
// recurses into every shard. -seg dumps one segment file with no manifest
// cross-check.
//
// Usage:
//
//	chameleon-inspect -index idx.cham
//	chameleon-inspect -sosd data/face_1000000.sosd          # build then inspect
//	chameleon-inspect -sosd data/face_1000000.sosd -save idx.cham
//	chameleon-inspect -dir /data/chameleon                  # tier manifest + segments
//	chameleon-inspect -seg /data/chameleon/seg-0000000000000003.seg
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chameleon"
	"chameleon/internal/dataset"
)

func main() {
	var (
		indexPath = flag.String("index", "", "saved index file to load")
		sosdPath  = flag.String("sosd", "", "SOSD key file to bulk load")
		limit     = flag.Int("limit", 0, "max keys to read from the SOSD file (0 = all)")
		savePath  = flag.String("save", "", "write the (built or loaded) index here")
		dirPath   = flag.String("dir", "", "tiered durable directory: dump the tier manifest and segment metadata")
		segPath   = flag.String("seg", "", "single segment file: dump its header (no manifest cross-check)")
	)
	flag.Parse()

	if *segPath != "" {
		inspectSegFile(*segPath)
		return
	}
	if *dirPath != "" {
		if !inspectTierDir(*dirPath) {
			os.Exit(1)
		}
		return
	}

	var ix *chameleon.Index
	switch {
	case *indexPath != "":
		start := time.Now()
		loaded, err := chameleon.Load(*indexPath, chameleon.Options{})
		if err != nil {
			fatal(err)
		}
		ix = loaded
		fmt.Printf("loaded %s in %v\n", *indexPath, time.Since(start).Round(time.Millisecond))
	case *sosdPath != "":
		keys, err := dataset.ReadSOSDFile(*sosdPath, *limit)
		if err != nil {
			fatal(err)
		}
		ix = chameleon.New(chameleon.Options{})
		start := time.Now()
		if err := ix.BulkLoad(keys, nil); err != nil {
			fatal(err)
		}
		fmt.Printf("built from %s (%d keys) in %v\n",
			*sosdPath, len(keys), time.Since(start).Round(time.Millisecond))
	default:
		fmt.Fprintln(os.Stderr, "need -index or -sosd; see -h")
		os.Exit(2)
	}
	defer ix.Close()

	s := ix.Stats()
	fmt.Printf("\nkeys:            %d\n", ix.Len())
	fmt.Printf("local skewness:  %.4f (π/4=%.4f uniform … π/2=%.4f extreme)\n",
		ix.LocalSkewness(), 0.7854, 1.5708)
	fmt.Printf("height:          max %d, avg %.2f\n", s.MaxHeight, s.AvgHeight)
	fmt.Printf("leaf error:      max %d, avg %.2f (EBH probe distance)\n", s.MaxError, s.AvgError)
	fmt.Printf("nodes:           %d\n", s.Nodes)
	fmt.Printf("size:            %.2f MB (%.1f bytes/key)\n",
		float64(ix.Bytes())/(1<<20), float64(ix.Bytes())/float64(max(1, ix.Len())))

	if *savePath != "" {
		if err := ix.Save(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("saved to %s\n", *savePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chameleon-inspect:", err)
	os.Exit(1)
}
