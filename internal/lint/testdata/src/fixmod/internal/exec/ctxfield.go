package exec

import "context"

// engine stores a context.
type engine struct {
	ctx context.Context
	n   int
}

// run takes its context as a parameter.
//
// ok: ctxfield
func run(ctx context.Context) error { return ctx.Err() }

// perCall carries a justified suppression.
//
// ok: ctxfield
type perCall struct {
	//lint:ignore ctxfield the engine is a per-call object, not a long-lived one
	ctx context.Context
}

// anyName's wildcard suppresses every analyzer on the line.
//
// ok: ctxfield
type anyName struct {
	//lint:ignore * the wildcard suppresses everything here
	ctx context.Context
}

// otherName's directive names another analyzer, so ctxfield still fires.
type otherName struct {
	//lint:ignore obslog a directive for a different analyzer
	ctx context.Context
}
