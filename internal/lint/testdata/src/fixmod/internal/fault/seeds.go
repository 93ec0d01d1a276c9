package fault

import (
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"time"
)

// ViaLocal seeds from the clock through two local variables.
func ViaLocal() *rand.Rand {
	now := time.Now().UnixNano()
	seed := now
	return rand.New(rand.NewSource(seed))
}

// ViaSince seeds from an elapsed wall-clock duration, converted.
func ViaSince(epoch time.Time) rand.Source {
	return rand.NewSource(int64(time.Since(epoch)))
}

// ViaEntropy seeds from crypto/rand through a method receiver.
func ViaEntropy() rand.Source {
	n, _ := crand.Int(crand.Reader, big.NewInt(1<<62))
	return rand.NewSource(n.Int64())
}

// Reseed derives a lane seed from an explicit parameter by arithmetic.
//
// ok: rngseed
func Reseed(seed int64, lane int) rand.Source {
	s := seed*7919 + int64(lane)
	return rand.NewSource(s)
}
