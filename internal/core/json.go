package core

import (
	"encoding/json"
	"fmt"
	"time"
)

// JSON encodings for the model types, so channel specifications and
// schedules can move between tools (remicss-opt emits schedules other
// processes consume). Channels encode delay as a human-editable duration
// string; schedules encode as a list of entries because JSON objects cannot
// key on structs.

// channelJSON is the wire form of Channel.
type channelJSON struct {
	Risk  float64 `json:"risk"`
	Loss  float64 `json:"loss"`
	Delay string  `json:"delay"`
	Rate  float64 `json:"rate"`
}

// MarshalJSON implements json.Marshaler with delay as a duration string.
func (c Channel) MarshalJSON() ([]byte, error) {
	return json.Marshal(channelJSON{
		Risk:  c.Risk,
		Loss:  c.Loss,
		Delay: c.Delay.String(),
		Rate:  c.Rate,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Channel) UnmarshalJSON(data []byte) error {
	var cj channelJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return fmt.Errorf("core: decoding channel: %w", err)
	}
	d, err := time.ParseDuration(cj.Delay)
	if err != nil {
		return fmt.Errorf("core: decoding channel delay %q: %w", cj.Delay, err)
	}
	*c = Channel{Risk: cj.Risk, Loss: cj.Loss, Delay: d, Rate: cj.Rate}
	return nil
}

// scheduleEntryJSON is one schedule entry: explicit channel indices rather
// than a bitmask, for readability.
type scheduleEntryJSON struct {
	K        int     `json:"k"`
	Channels []int   `json:"channels"`
	P        float64 `json:"p"`
}

// MarshalJSON implements json.Marshaler: a deterministic list of entries
// sorted by (k, mask).
func (p Schedule) MarshalJSON() ([]byte, error) {
	entries := make([]scheduleEntryJSON, 0, len(p))
	for _, a := range p.Support() {
		entries = append(entries, scheduleEntryJSON{
			K:        a.K,
			Channels: maskIndices(a.Mask),
			P:        p[a],
		})
	}
	return json.Marshal(entries)
}

// UnmarshalJSON implements json.Unmarshaler. The decoded schedule is not
// validated; call Validate with the channel count.
func (p *Schedule) UnmarshalJSON(data []byte) error {
	var entries []scheduleEntryJSON
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("core: decoding schedule: %w", err)
	}
	out := make(Schedule, len(entries))
	for i, e := range entries {
		var mask uint32
		for _, ch := range e.Channels {
			if ch < 0 || ch >= MaxChannels {
				return fmt.Errorf("core: schedule entry %d: channel index %d out of range", i, ch)
			}
			mask |= 1 << uint(ch)
		}
		out[Assignment{K: e.K, Mask: mask}] += e.P
	}
	*p = out
	return nil
}
