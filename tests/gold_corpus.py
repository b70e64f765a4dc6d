"""Hand-annotated extraction fixtures.

Each fixture carries a document, its hand-assigned kind, and the aspect
values a careful reader would record. The annotations are written from the
documents alone; several fixtures deliberately carry aspects in forms the
extractor does not handle (prose steps, schemeless URLs, bullet lists) and
several carry traps that look like aspects but are not (changelogs, tables
of contents, placeholder header values).
"""

import json
from pathlib import Path

from pocfusion import AspectSet, ContentKind, Corpus, PocReport

# fixture = {id, source, kind, content, gold}; absent gold slots mean "none"
GOLD_FIXTURES = [
    {
        # clean advisory, every slot present and extractable
        "id": "g01",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
Title: CoreFTP 2.1 - Remote Buffer Overflow
Author: p.villa
Date: 2019-04-11
Platform: Windows
Version: 2.1

The FTP banner parser overruns a fixed buffer.

Steps to reproduce:
1. Start the bundled server emulator
2. Connect with the vulnerable client
3. Send a banner longer than 512 bytes

Expected output:
  client crashes with an access violation

Advisory: https://coreftp.example/adv/2019-03
""",
        "gold": {
            "title": ["CoreFTP 2.1 - Remote Buffer Overflow"],
            "author": ["p.villa"],
            "publish_time": ["2019-04-11"],
            "test_platform": ["Windows"],
            "software_version": ["2.1"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Start the bundled server emulator\n"
                "2. Connect with the vulnerable client\n"
                "3. Send a banner longer than 512 bytes"
            ],
            "verification_oracle": [
                "Expected output:\n  client crashes with an access violation"
            ],
            "reference": ["https://coreftp.example/adv/2019-03"],
        },
    },
    {
        # commented headers in code; format-string URL is not a reference
        "id": "g02",
        "source": "ExploitDB",
        "kind": "code:python",
        "content": """\
# Exploit Title: PixelBoard 0.4 - Unauthenticated RCE
# Author: crt0
# Date: 2020-08-19
# Platform: Linux
# Version: 0.4
# Reference: https://pixelboard.example/issues/88
import urllib.request

def shoot(host, cmd):
    body = ("template=" + cmd).encode()
    urllib.request.urlopen("http://%s/render" % host, data=body)

shoot("127.0.0.1:8000", "touch /tmp/proof")
print("sent")
""",
        "gold": {
            "title": ["PixelBoard 0.4 - Unauthenticated RCE"],
            "author": ["crt0"],
            "publish_time": ["2020-08-19"],
            "test_platform": ["Linux"],
            "software_version": ["0.4"],
            "reference": ["https://pixelboard.example/issues/88"],
        },
    },
    {
        # headline is a title but header lines suppress the fallback
        "id": "g03",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
VServ Media Server Advisory

Affected Versions: 3.0, 3.1, 3.2
Tested on: Windows 10, Windows Server 2016
Discovered by: h.lindt
Publish Date: 2021-01-27

A crafted RTSP DESCRIBE request discloses heap memory.

Expected output:
  response body contains uninitialized heap bytes

Details: https://vserv.example/security/vmsa-21-01.html
""",
        "gold": {
            "title": ["VServ Media Server Advisory"],
            "author": ["h.lindt"],
            "publish_time": ["2021-01-27"],
            "test_platform": ["Windows 10", "Windows Server 2016"],
            "software_version": ["3.0", "3.1", "3.2"],
            "verification_oracle": [
                "Expected output:\n  response body contains uninitialized heap bytes"
            ],
            "reference": ["https://vserv.example/security/vmsa-21-01.html"],
        },
    },
    {
        # steps and oracle written as plain prose
        "id": "g04",
        "source": "Seebug",
        "kind": "text",
        "content": """\
TinyNote for Android clipboard leak

Author: yuna
Date: 2018-09-30

First, open a shared note and place any text on the clipboard. Next,
lock the device and start a sync from another session. The sync
handler pastes the clipboard into the shared note body.

On success the leaked clipboard text is visible to every collaborator.
""",
        "gold": {
            "title": ["TinyNote for Android clipboard leak"],
            "author": ["yuna"],
            "publish_time": ["2018-09-30"],
            "trigger_step": [
                "First, open a shared note and place any text on the clipboard. Next,\n"
                "lock the device and start a sync from another session. The sync\n"
                "handler pastes the clipboard into the shared note body."
            ],
            "verification_oracle": [
                "On success the leaked clipboard text is visible to every collaborator."
            ],
        },
    },
    {
        # build line is extractable; the two-line output comment is not
        "id": "g05",
        "source": "CXSecurity",
        "kind": "code:c_cpp",
        "content": """\
// PoC Title: libtagparse 1.4 heap overflow
// Author: smo
// Tested on: Debian 10
// compile with: gcc -fno-stack-protector -o tagpoc tagpoc.c
// PoC output:
//   free(): invalid next size (fast)
#include <stdlib.h>
#include <string.h>

int main(void) {
    char *tag = malloc(24);
    memset(tag, 0x41, 64);
    free(tag);
    return 0;
}
""",
        "gold": {
            "title": ["libtagparse 1.4 heap overflow"],
            "author": ["smo"],
            "test_platform": ["Debian 10"],
            "trigger_step": [
                "// compile with: gcc -fno-stack-protector -o tagpoc tagpoc.c"
            ],
            "verification_oracle": [
                "// PoC output:\n//   free(): invalid next size (fast)"
            ],
        },
    },
    {
        # one reference has no scheme and is beyond the URL pattern
        "id": "g06",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
SpoolMate print daemon symlink attack

Discovered by: arno
Published: 2017-11-08
Tested on: FreeBSD 11

The daemon follows attacker-controlled symlinks under /var/spool/mate.

Steps to reproduce:
1. Create a symlink from the spool directory to /etc/passwd
2. Queue a job owned by any local user

Expected output:
  /etc/passwd grows by one forged line

Writeup: www.spoolmate-research.example/notes/symlink.txt
Backup copy: https://archive.example/spoolmate-symlink
""",
        "gold": {
            "title": ["SpoolMate print daemon symlink attack"],
            "author": ["arno"],
            "publish_time": ["2017-11-08"],
            "test_platform": ["FreeBSD 11"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Create a symlink from the spool directory to /etc/passwd\n"
                "2. Queue a job owned by any local user"
            ],
            "verification_oracle": [
                "Expected output:\n  /etc/passwd grows by one forged line"
            ],
            "reference": [
                "www.spoolmate-research.example/notes/symlink.txt",
                "https://archive.example/spoolmate-symlink",
            ],
        },
    },
    {
        # the literal URL is the attack target, not a reference
        "id": "g07",
        "source": "PacketStorm",
        "kind": "code:php",
        "content": """\
<?php
// Title: FormRelay 2.2 - SQL Injection
// Author: dVz
// Date: 2020-02-14
// Version: 2.2
$base = "https://demo.formrelay.example/api";
$payload = "id=1' UNION SELECT login, secret FROM accounts-- -";
echo do_post($base . "/lookup", $payload);
?>
""",
        "gold": {
            "title": ["FormRelay 2.2 - SQL Injection"],
            "author": ["dVz"],
            "publish_time": ["2020-02-14"],
            "software_version": ["2.2"],
        },
    },
    {
        # a changelog is numbered like steps but is not a trigger
        "id": "g08",
        "source": "Seebug",
        "kind": "text",
        "content": """\
RetroPanel security rollup

The vendor shipped a combined fix. Changes in this build:
1. Hardened session cookie generation
2. Removed the legacy upload endpoint
3. Escaped search output

No reproduction details were made public.
""",
        "gold": {
            "title": ["RetroPanel security rollup"],
        },
    },
    {
        # placeholder version value; platform named only in prose
        "id": "g09",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
DeskAgent local privilege escalation

Author: q.bell
Version: n/a
Date: 2019-06-17

The updater runs unpacked MSI content as SYSTEM. The bug reproduces
only on Windows hosts with the bundled updater service enabled.
""",
        "gold": {
            "title": ["DeskAgent local privilege escalation"],
            "author": ["q.bell"],
            "publish_time": ["2019-06-17"],
            "test_platform": ["Windows"],
        },
    },
    {
        # author credited in a sentence, not a labelled line
        "id": "g10",
        "source": "ExploitDB",
        "kind": "code:ruby",
        "content": """\
# Exploit Title: GemCache 1.1 - Deserialization RCE
# Tested on: Ubuntu 18.04
# Version: 1.1
# Found during a routine audit; credit goes to the NightOwl crew.
require 'socket'

blob = ["04085b07", "6f3a"].pack("H*H*")
sock = TCPSocket.new(ARGV[0], 6379)
sock.write("LOAD " + blob)
puts "payload written"
""",
        "gold": {
            "title": ["GemCache 1.1 - Deserialization RCE"],
            "author": ["NightOwl crew"],
            "test_platform": ["Ubuntu 18.04"],
            "software_version": ["1.1"],
        },
    },
    {
        # step continuation line and a fenced oracle block
        "id": "g11",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
Title: MailSling 0.9 - Header Injection
Author: t.okafor
Published: 2022-03-03
Platform: Linux
Version: 0.9

Steps to reproduce:
1. Send a message whose subject contains a CRLF pair
   followed by a forged Received header
2. Fetch the message through the list archive

Expected output:

```
forged Received header rendered as its own line
```

Reported upstream at https://mailsling.example/tickets/412.
""",
        "gold": {
            "title": ["MailSling 0.9 - Header Injection"],
            "author": ["t.okafor"],
            "publish_time": ["2022-03-03"],
            "test_platform": ["Linux"],
            "software_version": ["0.9"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Send a message whose subject contains a CRLF pair\n"
                "   followed by a forged Received header\n"
                "2. Fetch the message through the list archive"
            ],
            "verification_oracle": [
                "Expected output:\n\n```\n"
                "forged Received header rendered as its own line\n```"
            ],
            "reference": ["https://mailsling.example/tickets/412"],
        },
    },
    {
        # leading description comment reads as a title but carries no label
        "id": "g12",
        "source": "Seebug",
        "kind": "code:javascript",
        "content": """\
// XSS probe for CommentFlow widget embeds
// Author: sena
// Date: 2021-07-21
var payload = "<img src=x onerror=alert(document.domain)>";
document.getElementById("comment-box").innerHTML = payload;
console.log("payload placed");
""",
        "gold": {
            "title": ["XSS probe for CommentFlow widget embeds"],
            "author": ["sena"],
            "publish_time": ["2021-07-21"],
        },
    },
    {
        # "expected output" mentioned in passing, no oracle present
        "id": "g13",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
FileBarn agent crash report

Credit: anon-474
Date: 2016-05-29

Multiple crash dumps were shared on the mailing list, but we never
captured the expected output from a clean run for comparison.
""",
        "gold": {
            "title": ["FileBarn agent crash report"],
            "author": ["anon-474"],
            "publish_time": ["2016-05-29"],
        },
    },
    {
        # block comment headline without a label
        "id": "g14",
        "source": "ExploitDB",
        "kind": "code:c_cpp",
        "content": """\
/* RouterScan firmware unpacker crash
   affects firmware images before build 4412
   compile with: cc -O0 -g unpack.c -o unpack
*/
#include <stdio.h>

int main(int argc, char **argv) {
    FILE *fw = fopen(argv[1], "rb");
    char header[16];
    fread(header, 1, 64, fw);
    printf("magic %02x\\n", header[0]);
    return 0;
}
""",
        "gold": {
            "title": ["RouterScan firmware unpacker crash"],
            "trigger_step": ["compile with: cc -O0 -g unpack.c -o unpack"],
        },
    },
    {
        # a table of contents is numbered like steps but is not a trigger
        "id": "g15",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
ArchiveHut path traversal advisory

Published: 2015-02-10
Author: flux

Table of contents
1. Overview
2. Details
3. Timeline

The extractor writes entries outside the target directory.

Steps:
1. Build an archive containing ../../owned.txt
2. Extract it with the vulnerable build

Expected output:
  owned.txt appears two directories above the extraction root
""",
        "gold": {
            "title": ["ArchiveHut path traversal advisory"],
            "author": ["flux"],
            "publish_time": ["2015-02-10"],
            "trigger_step": [
                "Steps:\n"
                "1. Build an archive containing ../../owned.txt\n"
                "2. Extract it with the vulnerable build"
            ],
            "verification_oracle": [
                "Expected output:\n"
                "  owned.txt appears two directories above the extraction root"
            ],
        },
    },
    {
        # headerless document: the first line is the title
        "id": "g16",
        "source": "Seebug",
        "kind": "text",
        "content": """\
PhotoPrint kiosk lock-screen bypass

Swiping from the top edge during the printing animation drops the
kiosk shell to the desktop.

Steps to reproduce:
1. Queue any photo for printing
2. Swipe down repeatedly while the progress bar animates

Expected output:
  desktop visible, kiosk shell minimized

Vendor note: https://photoprint.example/kb/lockscreen
""",
        "gold": {
            "title": ["PhotoPrint kiosk lock-screen bypass"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Queue any photo for printing\n"
                "2. Swipe down repeatedly while the progress bar animates"
            ],
            "verification_oracle": [
                "Expected output:\n  desktop visible, kiosk shell minimized"
            ],
            "reference": ["https://photoprint.example/kb/lockscreen"],
        },
    },
    {
        # comma-separated platform list in a comment header
        "id": "g17",
        "source": "CXSecurity",
        "kind": "code:java",
        "content": """\
// Exploit Title: BeanBridge 5.0 - JMX Remote Code Execution
// Author: mzk
// Date: 2017-09-12
// Tested on: Windows Server 2012, CentOS 7
import javax.management.remote.*;

public class BeanBridgePoc {
    public static void main(String[] args) throws Exception {
        JMXServiceURL u = new JMXServiceURL(args[0]);
        JMXConnectorFactory.connect(u);
        System.out.println("connected");
    }
}
""",
        "gold": {
            "title": ["BeanBridge 5.0 - JMX Remote Code Execution"],
            "author": ["mzk"],
            "publish_time": ["2017-09-12"],
            "test_platform": ["Windows Server 2012", "CentOS 7"],
        },
    },
    {
        # placeholder date header; the real date sits in prose
        "id": "g18",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
NetVault tape browser overflow

Author: r.s.
Date: TBD

The report was shared with the vendor on 2016-03-14 and is being
published without a fix after the 90 day deadline lapsed.
""",
        "gold": {
            "title": ["NetVault tape browser overflow"],
            "author": ["r.s."],
            "publish_time": ["2016-03-14"],
        },
    },
    {
        # shell PoC with a full comment header block
        "id": "g19",
        "source": "PacketStorm",
        "kind": "code:shell",
        "content": """\
#!/bin/sh
# Exploit Title: BackupRotate 1.6 - Cron Command Injection
# Author: vexx
# Version: 1.6
# Platform: Linux
TARGETDIR="/var/backups"
printf ';touch /tmp/pwned;' > "$TARGETDIR/job name"
echo "planted"
""",
        "gold": {
            "title": ["BackupRotate 1.6 - Cron Command Injection"],
            "author": ["vexx"],
            "software_version": ["1.6"],
            "test_platform": ["Linux"],
        },
    },
    {
        # platform header that defers to an external matrix
        "id": "g20",
        "source": "Seebug",
        "kind": "text",
        "content": """\
KioskWeb browser sandbox escape

Platform: see vendor matrix
Author: dora
Published: 2023-04-02

Escape works from the print preview iframe.
""",
        "gold": {
            "title": ["KioskWeb browser sandbox escape"],
            "author": ["dora"],
            "publish_time": ["2023-04-02"],
        },
    },
    {
        # placeholder author value
        "id": "g21",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
HostTrack beacon predictable token

Author: unknown
Published: 2020-10-02
Version: 0.7

Tokens are derived from the boot timestamp alone.
""",
        "gold": {
            "title": ["HostTrack beacon predictable token"],
            "publish_time": ["2020-10-02"],
            "software_version": ["0.7"],
        },
    },
    {
        # lettered step list
        "id": "g22",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
PlotServe graph export traversal

Exported graphs may be written outside the web root.

Steps to reproduce:
a) Request an export with name ../../html/hello.svg
b) Fetch /hello.svg from the web root

Expected output:
  the exported graph is served from the web root
""",
        "gold": {
            "title": ["PlotServe graph export traversal"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "a) Request an export with name ../../html/hello.svg\n"
                "b) Fetch /hello.svg from the web root"
            ],
            "verification_oracle": [
                "Expected output:\n  the exported graph is served from the web root"
            ],
        },
    },
    {
        # "Step N:" list without an introducing keyword line
        "id": "g23",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
CamViewer stream hijack

Step 1: Join the target stream as a viewer
Step 2: Replay the captured session ticket within five minutes

The replayed ticket grants publisher rights.
""",
        "gold": {
            "title": ["CamViewer stream hijack"],
            "trigger_step": [
                "Step 1: Join the target stream as a viewer\n"
                "Step 2: Replay the captured session ticket within five minutes"
            ],
        },
    },
    {
        # bullet list markers carry no sequence numbering
        "id": "g24",
        "source": "Seebug",
        "kind": "text",
        "content": """\
InkDrop sync hijack notes

To take over a sync pair:
- Pair a new device while the victim device is asleep
- Accept the pairing from the attacker device
- Wait for the next wake cycle

Afterwards every note edit mirrors to the attacker device.
""",
        "gold": {
            "title": ["InkDrop sync hijack notes"],
            "trigger_step": [
                "- Pair a new device while the victim device is asleep\n"
                "- Accept the pairing from the attacker device\n"
                "- Wait for the next wake cycle"
            ],
        },
    },
    {
        # trigger prose plus an oracle block separated by a blank line
        "id": "g25",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
PBX AutoAttendant voicemail PIN bypass

Author: tel_k
Date: 2015-08-20

Dial the attendant, enter any extension, and interrupt the prompt
with the star key twice.

Expected output:

    voicemail menu for the extension without a PIN challenge
""",
        "gold": {
            "title": ["PBX AutoAttendant voicemail PIN bypass"],
            "author": ["tel_k"],
            "publish_time": ["2015-08-20"],
            "trigger_step": [
                "Dial the attendant, enter any extension, and interrupt the prompt\n"
                "with the star key twice."
            ],
            "verification_oracle": [
                "Expected output:\n\n"
                "    voicemail menu for the extension without a PIN challenge"
            ],
        },
    },
    {
        # repeated URL recorded once; ftp scheme counts
        "id": "g26",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
MirrorSync archive disclosure

The nightly tarball is world readable on the mirror:
ftp://mirror.example/private/nightly.tar.gz

The same path was previously reported at
https://bugs.mirrorsync.example/101 and the report links back to
ftp://mirror.example/private/nightly.tar.gz as evidence.
""",
        "gold": {
            "title": ["MirrorSync archive disclosure"],
            "reference": [
                "ftp://mirror.example/private/nightly.tar.gz",
                "https://bugs.mirrorsync.example/101",
            ],
        },
    },
    {
        # URL inside parentheses keeps its path, loses the closing bracket
        "id": "g27",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
LoomChat room key reuse

Room keys repeat across restarts (see https://loomchat.example/sec/keys).
Rotate keys after every restart to mitigate.
""",
        "gold": {
            "title": ["LoomChat room key reuse"],
            "reference": ["https://loomchat.example/sec/keys"],
        },
    },
    {
        # long-form date in a header
        "id": "g28",
        "source": "Seebug",
        "kind": "text",
        "content": """\
Title: StoreKit license check bypass
Published: March 3, 2020
Platform: macOS

Replacing the receipt file defeats the offline license check.
""",
        "gold": {
            "title": ["StoreKit license check bypass"],
            "publish_time": ["March 3, 2020"],
            "test_platform": ["macOS"],
        },
    },
    {
        # platform named only inside a sentence
        "id": "g29",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
PlugPrint driver symlink clobber

Found by: ow1
Date: 2021-12-12

The installer follows /tmp/plugprint.log. The issue reproduces on
macOS Catalina but not on newer releases.
""",
        "gold": {
            "title": ["PlugPrint driver symlink clobber"],
            "author": ["ow1"],
            "publish_time": ["2021-12-12"],
            "test_platform": ["macOS Catalina"],
        },
    },
    {
        # perl PoC with a complete header block and advisory link
        "id": "g30",
        "source": "ExploitDB",
        "kind": "code:perl",
        "content": """\
#!/usr/bin/perl
# Exploit Title: MailGate 3.8 - IMAP LIST Overflow
# Author: spanner
# Date: 2014-10-30
# Tested on: Slackware 14.1
# Reference: https://mailgate.example/psa-2014-11
use strict;
use warnings;
use IO::Socket::INET;

my $sock = IO::Socket::INET->new("$ARGV[0]:143") or die "no connect: $!\\n";
print $sock "A001 LIST " . ("A" x 8200) . "\\r\\n";
print "overflow sent\\n";
""",
        "gold": {
            "title": ["MailGate 3.8 - IMAP LIST Overflow"],
            "author": ["spanner"],
            "publish_time": ["2014-10-30"],
            "test_platform": ["Slackware 14.1"],
            "reference": ["https://mailgate.example/psa-2014-11"],
        },
    },
    {
        # markup comments close with an arrow that is not part of the value
        "id": "g31",
        "source": "PacketStorm",
        "kind": "code:html",
        "content": """\
<!DOCTYPE html>
<!-- Title: AdWidget frame injection demo -->
<!-- Author: nb -->
<!-- Date: 2019-02-08 -->
<html>
<body>
<iframe src="about:blank" id="slot"></iframe>
<script>
document.getElementById("slot").src = "javascript:alert(1)";
</script>
</body>
</html>
""",
        "gold": {
            "title": ["AdWidget frame injection demo"],
            "author": ["nb"],
            "publish_time": ["2019-02-08"],
        },
    },
    {
        # banner line carries no information; nothing to record
        "id": "g32",
        "source": "Seebug",
        "kind": "text",
        "content": """\
==== PUBLIC SERVICE ANNOUNCEMENT ====

QuickShare guest links never expire. Anyone holding an old link can
read current file contents.

Revoke guest links manually from the admin console.
""",
        "gold": {},
    },
    {
        # open-ended version expression kept verbatim
        "id": "g33",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
Title: PingBoard agent weak update signature
Version: 2.0 and later
Author: kd

Updates are accepted when the signature file is merely present.
""",
        "gold": {
            "title": ["PingBoard agent weak update signature"],
            "software_version": ["2.0 and later"],
            "author": ["kd"],
        },
    },
    {
        # hyphenated version range
        "id": "g34",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
Vulnerable Version: 1.0.0-1.0.4
Title: SnapDeploy provisioning token leak
Discovered by: grx

Tokens appear in the provisioning log shipped to all tenants.
""",
        "gold": {
            "title": ["SnapDeploy provisioning token leak"],
            "software_version": ["1.0.0-1.0.4"],
            "author": ["grx"],
        },
    },
    {
        # one-line reproduction instruction; result sentence has no keyword
        "id": "g35",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
EchoD reflection amplification

Reproduce by sending a single UDP datagram of 65000 bytes to port 5353.
The daemon answers with four copies of the payload.
""",
        "gold": {
            "title": ["EchoD reflection amplification"],
            "trigger_step": [
                "Reproduce by sending a single UDP datagram of 65000 bytes to port 5353."
            ],
            "verification_oracle": [
                "The daemon answers with four copies of the payload."
            ],
        },
    },
    {
        # scratch code with nothing to record
        "id": "g36",
        "source": "Seebug",
        "kind": "code:python",
        "content": """\
# scratch probe, do not ship
import os

for name in os.listdir("."):
    if name.endswith(".bak"):
        print(name)
""",
        "gold": {},
    },
    {
        # python PoC with headers only
        "id": "g37",
        "source": "CXSecurity",
        "kind": "code:python",
        "content": """\
# Exploit Title: NoteSync 4.2 - Path Traversal (Write)
# Author: fjord
# Version: 4.2
# Platform: Windows
import socket
import sys

HOST = sys.argv[1]
BODY = "PUT /notes/..%5c..%5cstartup\\r\\n\\r\\ncalc\\r\\n"
s = socket.create_connection((HOST, 8700))
s.sendall(BODY.encode())
print(s.recv(64))
""",
        "gold": {
            "title": ["NoteSync 4.2 - Path Traversal (Write)"],
            "author": ["fjord"],
            "software_version": ["4.2"],
            "test_platform": ["Windows"],
        },
    },
    {
        # alternative oracle keyword line
        "id": "g38",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
RelayMux session fixation

Set the session cookie before authentication and it survives login.

PoC output:
  session id unchanged across the login boundary
""",
        "gold": {
            "title": ["RelayMux session fixation"],
            "verification_oracle": [
                "PoC output:\n  session id unchanged across the login boundary"
            ],
        },
    },
    {
        # blank lines between numbered items stay inside the region
        "id": "g39",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
StreamVault exporter credentials leak

Steps to reproduce:

1. Enable the debug exporter from the admin panel

2. Download the generated support bundle

The bundle embeds the primary database password.
""",
        "gold": {
            "title": ["StreamVault exporter credentials leak"],
            "trigger_step": [
                "Steps to reproduce:\n\n"
                "1. Enable the debug exporter from the admin panel\n\n"
                "2. Download the generated support bundle"
            ],
            "verification_oracle": [
                "The bundle embeds the primary database password."
            ],
        },
    },
    {
        # short OS label
        "id": "g40",
        "source": "Seebug",
        "kind": "text",
        "content": """\
Title: TermLink escape sequence injection
OS: Windows XP SP3
Author: pq

Window title reports execute injected keystrokes.
""",
        "gold": {
            "title": ["TermLink escape sequence injection"],
            "test_platform": ["Windows XP SP3"],
            "author": ["pq"],
        },
    },
    {
        # long-form labels
        "id": "g41",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
Title: CoreBank statement export formula injection
Operating System: AIX 7.1
Software Version: 11.2
Author: t-om

Exported CSV cells beginning with = execute in desktop spreadsheets.
""",
        "gold": {
            "title": ["CoreBank statement export formula injection"],
            "test_platform": ["AIX 7.1"],
            "software_version": ["11.2"],
            "author": ["t-om"],
        },
    },
    {
        # two independent numbered sequences
        "id": "g42",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
DualGate enrollment races

Primary enrollment:
1. Submit the enrollment form twice within one second
2. Approve either request

Secondary token reuse:
1. Capture the approval token
2. Replay it against the secondary gate
3. Confirm both gates report enrolled

Both sequences end with two active badges for one identity.
""",
        "gold": {
            "title": ["DualGate enrollment races"],
            "trigger_step": [
                "1. Submit the enrollment form twice within one second\n"
                "2. Approve either request",
                "1. Capture the approval token\n"
                "2. Replay it against the secondary gate\n"
                "3. Confirm both gates report enrolled",
            ],
        },
    },
    {
        # wiki link written without a scheme
        "id": "g43",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
Title: OpenRelay queue world-writable spool
Published: 2013-07-19

Any local user can inject queue files. Mitigation notes live at
openrelay.example/wiki/spool-hardening for registered users.
""",
        "gold": {
            "title": ["OpenRelay queue world-writable spool"],
            "publish_time": ["2013-07-19"],
            "reference": ["openrelay.example/wiki/spool-hardening"],
        },
    },
    {
        # author named mid-sentence
        "id": "g44",
        "source": "Seebug",
        "kind": "text",
        "content": """\
BridgeCam default stream key

Every unit ships with stream key 0000. Reported by K. Tanaka during
a hotel audit.

Change the key before first boot.
""",
        "gold": {
            "title": ["BridgeCam default stream key"],
            "author": ["K. Tanaka"],
        },
    },
    {
        # full advisory exercising every slot at once
        "id": "g45",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
Title: FleetPath telemetry injection
Author: v.ostrov
Publish Date: 2022-11-05
Platform: Linux, QNX
Affected Version: 7.3

Forged telemetry frames are accepted without a digest check.

Steps to reproduce:
1. Spoof the unit serial in a telemetry frame
2. Post the frame to the collector endpoint
3. Read back the dashboard for the spoofed unit

Expected output:
  dashboard plots the forged coordinates

Coordinated disclosure notes: https://fleetpath.example/security/fp-22-09
""",
        "gold": {
            "title": ["FleetPath telemetry injection"],
            "author": ["v.ostrov"],
            "publish_time": ["2022-11-05"],
            "test_platform": ["Linux", "QNX"],
            "software_version": ["7.3"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Spoof the unit serial in a telemetry frame\n"
                "2. Post the frame to the collector endpoint\n"
                "3. Read back the dashboard for the spoofed unit"
            ],
            "verification_oracle": [
                "Expected output:\n  dashboard plots the forged coordinates"
            ],
            "reference": ["https://fleetpath.example/security/fp-22-09"],
        },
    },
    {
        # misspelled build keyword still marks the line
        "id": "g46",
        "source": "ExploitDB",
        "kind": "code:c_cpp",
        "content": """\
/* Found by: mr_un1k */
/* complie with: gcc -m32 -o sploit sploit.c */
#include <unistd.h>
#include <string.h>

int main(void) {
    char cmd[64];
    strcpy(cmd, "/usr/bin/id");
    execve(cmd, 0, 0);
    return 0;
}
""",
        "gold": {
            "author": ["mr_un1k"],
            "trigger_step": ["/* complie with: gcc -m32 -o sploit sploit.c */"],
        },
    },
    {
        # disclosure date appears only inside a sentence
        "id": "g47",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
HotelKey master card derivation

Author: byte_rose

Cards derive from the room number alone. The derivation was shown
publicly on 07/21/2014 at a lockpicking meetup.
""",
        "gold": {
            "title": ["HotelKey master card derivation"],
            "author": ["byte_rose"],
            "publish_time": ["07/21/2014"],
        },
    },
    {
        # indented continuation inside a Step-labelled list, URL with fragment
        "id": "g48",
        "source": "Seebug",
        "kind": "text",
        "content": """\
PadPrint badge PDF seal bypass

Step 1: Export any badge as PDF
Step 2: Edit the seal layer with a PDF editor
        and re-save without flattening
Step 3: Print the edited badge

Verification notes at https://padprint.example/check#seals apply.
""",
        "gold": {
            "title": ["PadPrint badge PDF seal bypass"],
            "trigger_step": [
                "Step 1: Export any badge as PDF\n"
                "Step 2: Edit the seal layer with a PDF editor\n"
                "        and re-save without flattening\n"
                "Step 3: Print the edited badge"
            ],
            "reference": ["https://padprint.example/check#seals"],
        },
    },
    {
        # version header suppresses the fallback that would carry the title
        "id": "g49",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
LedgerLite CSV import macro smuggling

Version: 5.4

Imported categories execute as spreadsheet macros after export.
""",
        "gold": {
            "title": ["LedgerLite CSV import macro smuggling"],
            "software_version": ["5.4"],
        },
    },
    {
        # trigger extracts; the unlabelled result line does not
        "id": "g50",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
AirBadge NFC replay

Steps to reproduce:
1. Record a badge tap with a proxmark in sniff mode
2. Replay the recording at the same reader

The reader unlocks and logs the original badge holder.
""",
        "gold": {
            "title": ["AirBadge NFC replay"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Record a badge tap with a proxmark in sniff mode\n"
                "2. Replay the recording at the same reader"
            ],
            "verification_oracle": [
                "The reader unlocks and logs the original badge holder."
            ],
        },
    },
    {
        # disclosure timeline is numbered but is not a trigger
        "id": "g51",
        "source": "PacketStorm",
        "kind": "text",
        "content": """\
Title: ShopCart stored XSS in order notes
Author: lxd
Published: 2020-09-01

Disclosure timeline
1. 2020-05-11 reported to vendor
2. 2020-06-02 vendor acknowledged
3. 2020-09-01 public release

Order notes render unescaped in the fulfillment queue.
""",
        "gold": {
            "title": ["ShopCart stored XSS in order notes"],
            "author": ["lxd"],
            "publish_time": ["2020-09-01"],
        },
    },
    {
        # relative endpoint keeps the reference list empty
        "id": "g52",
        "source": "Seebug",
        "kind": "code:javascript",
        "content": """\
// Title: PollWidget vote stuffing helper
// Author: mlb_
const endpoint = "/api/vote";
for (let i = 0; i < 200; i++) {
  fetch(endpoint, {method: "POST", body: JSON.stringify({poll: 7, choice: 2})});
}
console.log("votes queued");
""",
        "gold": {
            "title": ["PollWidget vote stuffing helper"],
            "author": ["mlb_"],
        },
    },
    {
        # trailing catch-all in a comma list is not a platform
        "id": "g53",
        "source": "CXSecurity",
        "kind": "text",
        "content": """\
Title: TapeArchiver scheduled job hijack
Platform: Windows 7, Windows 8, and newer builds
Author: drm

The scheduled task runs a world-writable batch file.
""",
        "gold": {
            "title": ["TapeArchiver scheduled job hijack"],
            "test_platform": ["Windows 7", "Windows 8"],
            "author": ["drm"],
        },
    },
    {
        # comma-separated version list plus the remaining slots
        "id": "g54",
        "source": "ExploitDB",
        "kind": "text",
        "content": """\
Title: GridNode maintenance console default credentials
Author: e.maris
Publish Date: 2018-12-04
Tested on: Ubuntu 16.04
Affected Versions: 1.9, 2.0

The maintenance console ships with admin/gridnode.

Steps to reproduce:
1. Browse to the console on port 8443
2. Authenticate with the shipped defaults

Expected output:
  full maintenance menu without forced password change

Vendor bulletin: https://gridnode.example/bulletins/gn-18-12
""",
        "gold": {
            "title": ["GridNode maintenance console default credentials"],
            "author": ["e.maris"],
            "publish_time": ["2018-12-04"],
            "test_platform": ["Ubuntu 16.04"],
            "software_version": ["1.9", "2.0"],
            "trigger_step": [
                "Steps to reproduce:\n"
                "1. Browse to the console on port 8443\n"
                "2. Authenticate with the shipped defaults"
            ],
            "verification_oracle": [
                "Expected output:\n"
                "  full maintenance menu without forced password change"
            ],
            "reference": ["https://gridnode.example/bulletins/gn-18-12"],
        },
    },
]


def build_reports() -> list[PocReport]:
    return [
        PocReport(
            id=f["id"],
            source=f["source"],
            raw_content=f["content"],
            content_kind=ContentKind.decode(f["kind"]),
        )
        for f in GOLD_FIXTURES
    ]


def build_corpus() -> Corpus:
    return Corpus(build_reports())


def gold_table() -> dict[str, dict[str, list[str]]]:
    return {f["id"]: dict(f["gold"]) for f in GOLD_FIXTURES}


def write_gold_file(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in GOLD_FIXTURES:
            fh.write(json.dumps({"id": f["id"], **f["gold"]}, ensure_ascii=False) + "\n")
