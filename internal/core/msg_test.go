package core

import "testing"

// TestMsgNamesComplete: every control message type has a distinct name,
// so traces and flight dumps never show a bare msgType(n).
func TestMsgNamesComplete(t *testing.T) {
	const last = msgMigrateBaseAck
	seen := make(map[string]msgType)
	for mt := msgCheckpoint; mt <= last; mt++ {
		name, ok := msgNames[mt]
		if !ok {
			t.Errorf("msgType(%d) has no name", int(mt))
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("%q names both msgType(%d) and msgType(%d)", name, int(prev), int(mt))
		}
		seen[name] = mt
	}
	if len(msgNames) != int(last) {
		t.Errorf("msgNames has %d entries for %d message types", len(msgNames), int(last))
	}
}
