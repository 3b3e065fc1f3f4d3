"""The 240-message hand-signal catalog.

The app interface (Fig. 2) offers 240 predefined messages corresponding to
hand signals used by recreational and professional divers, organized into
eight categories, with the 20 most common displayed prominently.  Since the
exact list is not published, the catalog here is generated from realistic
signal families per category; what matters for the reproduction is the
*size* (240 messages -> 8 bits per message, two messages per 16-bit
packet), the category structure and the stable numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The eight message categories offered by the app's filter.
CATEGORIES: tuple[str, ...] = (
    "safety",
    "air and gas",
    "direction",
    "marine life",
    "equipment",
    "communication",
    "team coordination",
    "surface and boat",
)


@dataclass(frozen=True)
class HandSignalMessage:
    """One predefined message.

    Attributes
    ----------
    message_id:
        Stable identifier in ``[0, 239]``; this is the value encoded into
        packets.
    text:
        Human-readable message text.
    category:
        One of :data:`CATEGORIES`.
    is_common:
        Whether the message belongs to the 20 most commonly used signals
        shown prominently in the app.
    """

    message_id: int
    text: str
    category: str
    is_common: bool = False


_BASE_SIGNALS: dict[str, list[str]] = {
    "safety": [
        "OK?", "OK!", "Something is wrong", "Help me", "Emergency - surface now",
        "Stop", "Slow down", "Stay with your buddy", "Watch me", "Danger ahead",
        "I am cold", "I have a cramp", "Ear problem", "I feel dizzy", "Abort the dive",
        "Share air with me", "Check your gauge", "Safety stop here", "Hold on to the line",
        "Do not touch", "Decompression required", "Stay at this depth", "I am entangled",
        "Free me from the line", "Mask problem", "Fin problem", "I cannot equalize",
        "Take a breather", "Breathe slowly", "Calm down",
    ],
    "air and gas": [
        "How much air do you have?", "I have 200 bar", "I have 150 bar", "I have 100 bar",
        "I have 70 bar", "I have 50 bar - reserve", "I am low on air", "I am out of air",
        "Share your octopus", "Switch to backup regulator", "Check your tank valve",
        "Gas mixture problem", "Turn the dive on thirds", "Air consumption is high",
        "Breathe from the long hose", "I can donate air", "Check for leaks",
        "Bubbles behind you", "Valve drill", "Air is back to normal",
        "Start your ascent on 100 bar", "Save your air", "Regulator free-flow",
        "Purge your regulator", "Tank is loose", "Monitor your gas closely",
        "Rich mix in use", "Lean mix in use", "Switch gas now", "No decompression gas",
    ],
    "direction": [
        "Go up", "Go down", "Level off here", "Turn around", "Go left", "Go right",
        "Go straight ahead", "Follow me", "You lead", "Come here", "Stay here",
        "Move back", "Go under the obstacle", "Go over the obstacle", "Swim faster",
        "Swim slower", "Head to the anchor line", "Head to the shore", "Head to the boat",
        "Circle this spot", "Search pattern left", "Search pattern right",
        "Keep this heading", "Reverse the heading", "Go to the buoy", "Descend together",
        "Ascend together", "Hold this depth", "Drift with the current", "Against the current",
    ],
    "marine life": [
        "Look - a fish", "Look - a shark", "Look - a turtle", "Look - an octopus",
        "Look - a ray", "Look - an eel", "Look - a crab", "Look - a lobster",
        "Look - a seahorse", "Look - a jellyfish", "Careful - stinging animal",
        "Careful - spiny urchin", "Careful - fire coral", "Do not touch the coral",
        "School of fish ahead", "Big animal nearby", "Something under the rock",
        "Take a photo of this", "Rare species here", "Nesting area - keep away",
        "Dolphins nearby", "Seal nearby", "Whale in the distance", "Anemone with clownfish",
        "Nudibranch here", "Camouflaged animal", "Animal is sleeping", "Feeding activity",
        "Keep your distance", "Wonderful reef here",
    ],
    "equipment": [
        "Check your equipment", "My computer failed", "My light failed", "Torch on",
        "Torch off", "Camera problem", "Weight belt problem", "Drop your weights",
        "BCD inflation problem", "BCD dump valve stuck", "Drysuit inflation problem",
        "Drysuit squeeze", "Hood problem", "Glove problem", "Knife needed",
        "Reel problem", "Deploy the surface marker", "Surface marker deployed",
        "Line is cut", "Spare mask needed", "Battery is low", "Strap is loose",
        "Clip it off", "Stow the equipment", "Hand me the tool", "Take the camera",
        "Bring the spare tank", "Check the o-ring", "Rinse it at the surface", "Fix it later",
    ],
    "communication": [
        "Yes", "No", "I do not understand", "Repeat the message", "Wait a moment",
        "Look at me", "Look over there", "Listen for the recall", "Write it on the slate",
        "Read my slate", "Message received", "Ignore the last message", "Ask the guide",
        "Tell the group", "Signal the boat", "Count off the team", "Buddy check",
        "Everything is fine", "Question", "Answer me", "I will explain at the surface",
        "Use hand signals", "Use the app", "Send the SOS beacon", "Cancel the SOS",
        "Acknowledge", "Stand by", "Done", "Good job", "Thank you",
    ],
    "team coordination": [
        "Gather the group", "Spread out", "Pair up", "Switch buddies", "Stay in formation",
        "You are the lead diver", "You are the rear diver", "Keep the group together",
        "Wait for the slower divers", "Count the divers", "One diver is missing",
        "Search for the missing diver", "Regroup at the anchor", "Regroup at the reef",
        "Time check", "Depth check", "Turn the dive now", "Begin the exercise",
        "End the exercise", "Demonstrate the skill", "Repeat the skill", "Watch the student",
        "Assist your buddy", "Tow your buddy", "Hold hands during ascent",
        "Maintain eye contact", "Stay within sight", "Close the gap", "Give me space",
        "Follow the dive plan",
    ],
    "surface and boat": [
        "Surface now", "Meet at the surface", "Boat is overhead", "Watch for boat traffic",
        "Inflate your BCD at the surface", "Signal OK to the boat", "Need pickup",
        "Swim to the boat", "Swim to the shore", "Hold the mooring line",
        "Current is strong at the surface", "Waves are high", "Stay off the propeller",
        "Ladder is ready", "Hand up your fins", "Keep your mask on at the surface",
        "Wait for the recall signal", "Recall - return to the boat", "Drifting - send help",
        "Set the flag", "Take the line from the boat", "Boat is leaving soon",
        "Next group enters the water", "Stay clear of the entry zone", "Exit the water now",
        "Rest at the surface", "Report to the divemaster", "Log the dive",
        "Rinse off on deck", "Dive is complete",
    ],
}

#: Message identifiers of the 20 most common hand signals (shown prominently).
COMMON_MESSAGE_IDS: tuple[int, ...] = tuple(range(20))


def _build_catalog() -> tuple[HandSignalMessage, ...]:
    messages: list[HandSignalMessage] = []
    message_id = 0
    for category in CATEGORIES:
        for text in _BASE_SIGNALS[category]:
            messages.append(
                HandSignalMessage(
                    message_id=message_id,
                    text=text,
                    category=category,
                    is_common=message_id in COMMON_MESSAGE_IDS,
                )
            )
            message_id += 1
    if len(messages) != 240:
        raise RuntimeError(f"catalog must contain exactly 240 messages, built {len(messages)}")
    return tuple(messages)


#: The full 240-message catalog, indexed by message id.
MESSAGE_CATALOG: tuple[HandSignalMessage, ...] = _build_catalog()


def get_message(message_id: int) -> HandSignalMessage:
    """Return the catalog entry for ``message_id``."""
    if not 0 <= message_id < len(MESSAGE_CATALOG):
        raise ValueError(f"message_id must be in [0, {len(MESSAGE_CATALOG) - 1}], got {message_id}")
    return MESSAGE_CATALOG[message_id]
