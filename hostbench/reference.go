package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// referenceJSON records, for referenceSeed, every cell's digest per
// workload and scale: {"workload": {"scale": {"cell": "digest"}}}.
// Regenerate it after a change that is meant to alter simulated outputs:
//
//	HOSTBENCH_WRITE_REFERENCE=1 go test -run TestWriteReference ./hostbench
//
//go:embed reference.json
var referenceJSON []byte

type referenceDigests map[string]map[string]map[string]string

func loadReference() referenceDigests {
	var ref referenceDigests
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic(fmt.Sprintf("hostbench: embedded reference.json: %v", err))
	}
	return ref
}

// referenceFor returns the recorded digests of a workload's cells at a
// scale, or nil when seed is not the reference seed.
func referenceFor(workload string, seed int64, scale string) map[string]string {
	if seed != referenceSeed {
		return nil
	}
	return loadReference()[workload][scale]
}
