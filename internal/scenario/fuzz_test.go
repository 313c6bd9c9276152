package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"lockdown/internal/synth"
)

// FuzzScenarioParse feeds arbitrary bytes through the whole path a
// scenario file takes into the model: Parse, then Config for every
// declared vantage point with the scenario's seed and flow scale applied
// as `scenario run` applies them, then synth.New. Parse may reject its
// input, but nothing may panic, and a scenario that passes validation
// must compile to configs synth.New accepts. The corpus is seeded with
// the gallery and the malformed-scenario table.
func FuzzScenarioParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.yaml")
	if err != nil || len(files) == 0 {
		f.Fatalf("no gallery scenarios found (err=%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range malformedScenarios {
		f.Add([]byte(tc.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse("fuzz.yaml", data)
		if err != nil {
			return
		}
		for _, vp := range s.VPs {
			cfg := s.Config(vp)
			if s.Seed != 0 {
				cfg.Seed = s.Seed
			}
			if s.FlowScale != 0 {
				cfg.FlowScale = s.FlowScale
			}
			if _, err := synth.New(cfg); err != nil {
				t.Errorf("%s: synth.New rejected the compiled config: %v", vp, err)
			}
		}
	})
}
