package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// pinSeed is the seed whose outputs are pinned below.
const pinSeed = 1

// pinnedDigests holds the SHA-256 of each workload's CSV output at
// pinSeed. A model change that moves any number must bump
// harness.ModelSalt and re-pin these in the same change.
var pinnedDigests = map[string]string{
	"fig6-sweep":   "63f66d13e45a5e8075700b611ef2704785e2040ae49e2021075cb436350b758f",
	"study-replay": "7c6ed08124c418741ab2a8d36a712f627c44422f229f61a00c18924250d1461c",
	"dist-sweep":   "b3f0cd76bf5681afa1820a797d0f70dc3c3c2ce0a9a6d138f3676560cd8ebc03",
	"daemon-mixed": "2170cc8895ac13e21a109b8e92bfba0ba5b4043cb9faf06bf5d34d835c382a37",
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest fails when out does not hash to want.
func checkDigest(want string, out []byte) error {
	if got := digest(out); got != want {
		return fmt.Errorf("output digest %s, pinned %s", got, want)
	}
	return nil
}

// checkOutputs requires every unit to have produced the same bytes and,
// at the pinned seed, those bytes to match the pin.
func checkOutputs(name string, seed int64, units []unitResult) error {
	if len(units) == 0 {
		return fmt.Errorf("%s: no units ran", name)
	}
	for i, u := range units[1:] {
		if !bytes.Equal(u.output, units[0].output) {
			return fmt.Errorf("%s: unit %d output differs from unit 0", name, i+1)
		}
	}
	if seed != pinSeed {
		return nil
	}
	if err := checkDigest(pinnedDigests[name], units[0].output); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}
