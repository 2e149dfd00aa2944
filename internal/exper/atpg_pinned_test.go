package exper

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"fastmon/internal/atpg"
	"fastmon/internal/fault"
)

// TestSuiteATPGPinned pins the ATPG output of every paper-suite circuit
// at differential scale: the SHA-256 of the JSON-encoded patterns and
// Stats must match the recorded digest, at any GOMAXPROCS.
func TestSuiteATPGPinned(t *testing.T) {
	want := map[string]string{
		"s9234":  "685d42770455f03095c4c4e87ac3081a673edc414901aff56f12eaf9a7fffdf0",
		"s13207": "174ec7bd73a618b85490f398adb9bcb73b58b1d6c31796848a6be7fd7a5d9ed7",
		"s15850": "80e504ce12d1ec852cbac27752b0d2a8a8c141a8ae37e4044acc0f7148f99405",
		"s35932": "fb9b19cf799ba50b698d6918ad777ba694cc8ca02915be1d3da4a737ed35ec65",
		"s38417": "f8575b59c95d356e8ea1c00acbaacec7f15280435096147912c5aa4ec5190be6",
		"s38584": "d28c0f4e367db75e0a844564c97e255f9190932750501791ae3e95c0925e8dd8",
		"p35k":   "5663aa36ad64780f32dbd728e3c23282d3e574943a73464a63f4ac3c02bf91cd",
		"p45k":   "72f99741a3e86812b92b16ad9ab85a9da02ef209e086aa24fdf97f20d9f64d1d",
		"p78k":   "f1159cb1afbcc446f289fb153177b009cbf4c498fc9ab34374f08ef1050667ab",
		"p89k":   "87175051b4cbf8ba9b4e3774aa32f64d2855d4f519ce666b6535a49919e175f9",
		"p100k":  "294767f17e1cce574cc63956f4239da12142529354b1a18f1523a3c8449cae3b",
		"p141k":  "422301a88bcecfb92d10a0d055fd906a67a9961f6d76739f3ba55f9cbc454be9",
	}
	cfg := tinySuiteCfg()
	specs, err := cfg.Select()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, spec := range specs {
		c, err := spec.Build(cfg.Scale)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		faults := fault.Universe(c)
		if len(faults) > cfg.MaxFaults {
			faults = faults[:cfg.MaxFaults]
		}
		pats, st, err := atpg.Generate(ctx, c, faults, atpg.DefaultConfig(1))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		data, err := json.Marshal(struct {
			Patterns any
			Stats    atpg.Stats
		}{pats, st})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[spec.Name] {
			t.Errorf("%s: digest %s, want %s (%d patterns, %+v)", spec.Name, got, want[spec.Name], len(pats), st)
		}
	}
}
