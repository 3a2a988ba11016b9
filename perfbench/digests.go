package main

// defaultSeed is the seed whose simulated outputs are pinned below.
const defaultSeed = 1

// recordedDigests pins, per workload, a digest of repetition 0's simulated
// outputs at defaultSeed: delivered counts, simulated MB/s, the SLO latency
// histogram and windows, MTTR quantiles, remap counts and kernel event
// counts. A change that only makes the simulator faster leaves every one
// of them identical; any other change must say why they moved and record
// the new values here.
var recordedDigests = map[string]string{
	"stream": "a9cacdcb3896668e",
	"kv":     "3e5b5435e5032506",
	"faults": "e2d8030eb412c0d9",
	"scale":  "705bf239657e3cb8",
}
